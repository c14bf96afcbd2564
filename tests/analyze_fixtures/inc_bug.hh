// mc_analyze mutation fixture (with inc_bug.cc): the guard does not
// match MORPHCACHE_<path>_HH for this header's path.

#ifndef INC_BUG_H
#define INC_BUG_H

namespace fixture {

int incBug();

} // namespace fixture

#endif // INC_BUG_H
