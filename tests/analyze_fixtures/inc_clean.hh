// mc_analyze clean fixture (with inc_clean.cc): the guard spells
// this header's src/-relative path.

#ifndef MORPHCACHE_INC_CLEAN_HH
#define MORPHCACHE_INC_CLEAN_HH

namespace fixture {

int incClean();

} // namespace fixture

#endif // MORPHCACHE_INC_CLEAN_HH
