// mc_analyze mutation fixture: write-path I/O that bypasses the Vfs
// seam, so FaultyVfs never sees it and a crash can tear the file.
// Never compiled; analyzed with --fixture-mode by analyze_test.cc.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace fixture {

void
dumpStats(const std::string &path, const std::string &doc)
{
    // Unchecked, non-atomic, invisible to fault injection.
    FILE *out = std::fopen(path.c_str(), "w");
    std::fwrite(doc.data(), 1, doc.size(), out);
    std::fclose(out);
}

void
publish(const std::string &tmp, const std::string &path)
{
    // Hand-rolled write-then-rename: a second publication path.
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT, 0666);
    ::fsync(fd);
    ::close(fd);
    ::rename(tmp.c_str(), path.c_str());
    ::unlink(tmp.c_str());
}

void
prepare(const std::string &dir, const std::string &log)
{
    ::mkdir(dir.c_str(), 0777);
    std::ofstream trail(log);
    trail << "started\n";
}

} // namespace fixture
