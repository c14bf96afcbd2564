// mc_analyze clean fixture: nested records. A held record whose
// fields are all written or annotated, a record held only through an
// annotated member, a record the class only returns, and a nested
// class with a checkpoint of its own. Must produce no findings.

#include <cstdint>
#include <optional>
#include <vector>

class CkptWriter;
class CkptReader;

namespace fixture {

class Store
{
  public:
    /** A returned value, not state. */
    struct Where
    {
        std::uint32_t slice;
        std::uint32_t way;
    };

    Where locate(std::uint64_t line) const;

    void
    saveState(CkptWriter &w) const
    {
        for (const Row &row : rows_) {
            write(w, row.valid);
            write(w, row.dirty);
        }
        counter_.saveState(w);
    }

    void
    loadState(CkptReader &r)
    {
        for (Row &row : rows_) {
            row.valid = readU64(r);
            row.dirty = readU64(r);
        }
        counter_.loadState(r);
        rebuildIndex();
    }

  private:
    static void write(CkptWriter &w, std::uint64_t v);
    static std::uint64_t readU64(CkptReader &r);
    void rebuildIndex();

    struct alignas(32) Row
    {
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
        std::uint64_t scratch = 0; // ckpt: transient(per-call scratch)
    };

    /** Rebuilt from the rows after every load. */
    struct Index
    {
        std::vector<std::uint16_t> keys;
    };

    class Counter
    {
      public:
        void saveState(CkptWriter &w) const { put(w, n_); }
        void loadState(CkptReader &r) { n_ = get(r); }

      private:
        static void put(CkptWriter &w, std::uint64_t v);
        static std::uint64_t get(CkptReader &r);

        std::uint64_t n_ = 0;
    };

    std::vector<Row> rows_;
    Counter counter_;
    std::optional<Index> index_; // ckpt: derived(rebuildIndex)
};

} // namespace fixture
