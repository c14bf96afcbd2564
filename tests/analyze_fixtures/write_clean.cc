// mc_analyze clean fixture: read-side I/O and writes routed through
// the Vfs seam. Must produce no findings.

#include <cstdio>
#include <fstream>
#include <string>

namespace fixture {

struct Vfs
{
    int renamePath(const std::string &from, const std::string &to);
    int unlinkPath(const std::string &path);
};

Vfs &vfs();

void vfsWriteWholeFile(const std::string &path, const void *data,
                       std::size_t n, bool want_fsync);

class Journal
{
  public:
    void
    append(const std::string &line)
    {
        // A member helper that happens to be named write(): the
        // call resolves to it, not to write(2).
        write(line);
    }

  private:
    void write(const std::string &line);
};

std::size_t
readHeader(const std::string &path)
{
    // Read side: cannot tear a file.
    FILE *in = std::fopen(path.c_str(), "rb");
    char buf[16];
    const std::size_t got = std::fread(buf, 1, sizeof(buf), in);
    std::fclose(in);
    std::ifstream again(path);
    return got;
}

void
dumpStats(const std::string &path, const std::string &doc)
{
    // Through the seam: typed IoError on any failure.
    vfsWriteWholeFile(path, doc.data(), doc.size(), false);
    vfs().renamePath(path + ".tmp", path);
    vfs().unlinkPath(path + ".old");
}

} // namespace fixture
