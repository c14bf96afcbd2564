// mc_analyze mutation fixture: one site per pattern of the regex
// linter the analyzer replaced -- entropy, libc time, the three
// chrono clocks, the C clock calls, and every stdout writer. Each
// must be reported by its call (or declared type).
// Never compiled; analyzed with --fixture-mode by analyze_test.cc.

#include <sys/time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <random>

namespace fixture {

long
entropy()
{
    srand(7);
    long r = rand();
    std::random_device device;
    r += time(nullptr);
    r += clock();
    return r;
}

long
clocks()
{
    auto a = std::chrono::steady_clock::now();
    auto b = std::chrono::system_clock::now();
    auto c = std::chrono::high_resolution_clock::now();
    timeval tv;
    gettimeofday(&tv, nullptr);
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    timespec_get(&ts, TIME_UTC);
    return tv.tv_sec + ts.tv_sec;
}

void
stdoutWriters()
{
    std::cout << "cells\n";
    printf("cells\n");
    fprintf(stdout, "cells\n");
    puts("cells");
    putchar('\n');
}

} // namespace fixture
