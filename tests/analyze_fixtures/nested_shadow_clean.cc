// mc_analyze clean fixture: the twin of nested_shadow_bug.cc. Both
// walks still declare a local named like the record's field, but
// they also read the field as a member (`row.dirty`, `p->dirty`), so
// every field is written. Must produce no findings.

#include <cstdint>
#include <vector>

class CkptWriter;
class CkptReader;

namespace fixture {

class Store
{
  public:
    void
    saveState(CkptWriter &w) const
    {
        for (const Row &row : rows_) {
            const std::uint64_t dirty = row.dirty;
            write(w, row.valid);
            write(w, dirty);
        }
    }

    void
    loadState(CkptReader &r)
    {
        for (Row &row : rows_) {
            Row *p = &row;
            p->valid = readU64(r);
            const std::uint64_t dirty = readU64(r);
            p->dirty = dirty;
        }
    }

  private:
    static void write(CkptWriter &w, std::uint64_t v);
    static std::uint64_t readU64(CkptReader &r);

    struct Row
    {
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
    };

    std::vector<Row> rows_;
};

} // namespace fixture
