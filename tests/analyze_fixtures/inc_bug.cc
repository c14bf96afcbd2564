// mc_analyze mutation fixture: include hygiene, checked as if this
// directory were src/. The own header (inc_bug.hh) is not the first
// project include, a project include does not resolve, and
// <bits/stdc++.h> appears. Never compiled.

#include <bits/stdc++.h>

#include "common/missing.hh"
#include "inc_bug.hh"

namespace fixture {

int
incBug()
{
    return 1;
}

} // namespace fixture
