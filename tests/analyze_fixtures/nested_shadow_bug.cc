// mc_analyze mutation fixture: a record held by a checkpointed class
// gains a field (`dirty`) that neither walk writes, while both walks
// declare a local of the same name. The local must not count as the
// field: only member reads (`row.dirty`) write a record's field.

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
            const std::uint64_t dirty = row.valid & 1;
            write(w, row.valid);
            write(w, dirty);
        }
    }

    void
    loadState(CkptReader &r)
    {
        for (Row &row : rows_) {
            row.valid = readU64(r);
            const std::uint64_t dirty = readU64(r);
            row.valid |= dirty;
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
