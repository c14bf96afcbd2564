// mc_analyze mutation fixture: a record declared inside a
// checkpointed class and held by it gains a field its saveState and
// loadState never write (`lostField`), and another that only
// saveState writes (`halfRow`).

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
            write(w, row.valid);
            write(w, row.dirty);
            write(w, row.halfRow);
        }
    }

    void
    loadState(CkptReader &r)
    {
        for (Row &row : rows_) {
            row.valid = readU64(r);
            row.dirty = readU64(r);
        }
    }

  private:
    static void write(CkptWriter &w, std::uint64_t v);
    static std::uint64_t readU64(CkptReader &r);

    struct alignas(32) Row
    {
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
        std::uint64_t halfRow = 0;
        std::uint64_t lostField = 0;
    };

    std::vector<Row> rows_;
};

} // namespace fixture
