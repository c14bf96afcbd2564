#include "stats/registry.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/textfmt.hh"
#include "io/vfs.hh"

namespace morphcache {

namespace {

/** Compact numeric formatting shared by the JSON and CSV dumps. */
std::string
formatValue(double v)
{
    char buf[64];
    // Counters dominate; print integral values without a fraction.
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    return buf;
}

void
writeString(const std::string &path, const std::string &body)
{
    // Stats dumps are end-of-run artifacts a caller re-renders from
    // the run itself, not recovery state — no fsync, but write and
    // close failures surface as typed IoErrors instead of being
    // swallowed (a partial JSON dump parsing as truncated-but-valid
    // is worse than no dump).
    vfsWriteWholeFile(path, body.data(), body.size(),
                      /*want_fsync=*/false);
}

} // namespace

void
StatsRegistry::checkNewName(const std::string &name) const
{
    if (name.empty())
        panic("stat registered with an empty name");
    if (has(name))
        panic("duplicate stat name '%s'", name.c_str());
}

std::uint64_t &
StatsRegistry::counter(const std::string &name,
                       const std::string &desc)
{
    checkNewName(name);
    Entry &entry = entries_.emplace_back();
    entry.name = name;
    entry.desc = desc;
    entry.kind = StatKind::Counter;
    entry.isOwned = true;
    return entry.owned;
}

void
StatsRegistry::bindCounter(const std::string &name,
                           std::function<std::uint64_t()> sample,
                           const std::string &desc)
{
    checkNewName(name);
    Entry &entry = entries_.emplace_back();
    entry.name = name;
    entry.desc = desc;
    entry.kind = StatKind::Counter;
    entry.sample = [fn = std::move(sample)]() {
        return static_cast<double>(fn());
    };
}

void
StatsRegistry::bindScalar(const std::string &name,
                          std::function<double()> sample,
                          const std::string &desc)
{
    checkNewName(name);
    Entry &entry = entries_.emplace_back();
    entry.name = name;
    entry.desc = desc;
    entry.kind = StatKind::Scalar;
    entry.sample = std::move(sample);
}

Histogram &
StatsRegistry::histogram(const std::string &name, double lo,
                         double hi, std::size_t buckets,
                         const std::string &desc)
{
    checkNewName(name);
    histograms_.push_back(
        HistEntry{name, desc, Histogram(lo, hi, buckets)});
    return histograms_.back().hist;
}

bool
StatsRegistry::has(const std::string &name) const
{
    for (const Entry &entry : entries_) {
        if (entry.name == name)
            return true;
    }
    for (const HistEntry &entry : histograms_) {
        if (entry.name == name)
            return true;
    }
    return false;
}

const StatsRegistry::Entry &
StatsRegistry::find(const std::string &name) const
{
    for (const Entry &entry : entries_) {
        if (entry.name == name)
            return entry;
    }
    panic("unknown stat '%s'", name.c_str());
}

double
StatsRegistry::sampleEntry(const Entry &entry) const
{
    if (entry.isOwned)
        return static_cast<double>(entry.owned);
    return entry.sample();
}

double
StatsRegistry::value(const std::string &name) const
{
    return sampleEntry(find(name));
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_)
        out.push_back(entry.name);
    return out;
}

void
StatsRegistry::snapshotEpoch(std::uint64_t epoch)
{
    if (!snapshotEpochs_.empty() && epoch <= snapshotEpochs_.back())
        panic("epoch snapshots must be strictly increasing");
    std::vector<double> sample;
    sample.reserve(entries_.size());
    for (const Entry &entry : entries_)
        sample.push_back(sampleEntry(entry));
    snapshotEpochs_.push_back(epoch);
    snapshots_.push_back(std::move(sample));
}

std::vector<double>
StatsRegistry::epochRow(std::size_t i) const
{
    if (i >= snapshots_.size())
        panic("epoch row %zu out of range", i);
    std::vector<double> row(entries_.size(), 0.0);
    std::size_t j = 0;
    for (const Entry &entry : entries_) {
        const double now = snapshots_[i][j];
        if (entry.kind == StatKind::Counter && i > 0)
            row[j] = now - snapshots_[i - 1][j];
        else
            row[j] = now;
        ++j;
    }
    return row;
}

std::uint64_t
StatsRegistry::epochId(std::size_t i) const
{
    if (i >= snapshotEpochs_.size())
        panic("epoch snapshot %zu out of range", i);
    return snapshotEpochs_[i];
}

std::string
StatsRegistry::jsonString() const
{
    std::string out = "{\n  \"meta\": {\"seed\": ";
    out += std::to_string(meta_.seed);
    out += ", \"config\": \"";
    out += jsonEscape(meta_.configHash);
    out += "\"},\n  \"stats\": {";
    bool first = true;
    for (const Entry &entry : entries_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(entry.name) + "\": ";
        out += formatValue(sampleEntry(entry));
    }
    out += "\n  },\n  \"epochs\": [";
    for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"epoch\": ";
        out += formatValue(static_cast<double>(snapshotEpochs_[i]));
        const std::vector<double> row = epochRow(i);
        std::size_t j = 0;
        for (const Entry &entry : entries_) {
            out += ", \"" + jsonEscape(entry.name) + "\": ";
            out += formatValue(row[j]);
            ++j;
        }
        out += "}";
    }
    out += "\n  ],\n  \"histograms\": {";
    first = true;
    for (const HistEntry &entry : histograms_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(entry.name) +
               "\": {\"lo\": " +
               formatValue(entry.hist.bucketLo(0)) + ", \"counts\": [";
        for (std::size_t b = 0; b < entry.hist.numBuckets(); ++b) {
            if (b > 0)
                out += ", ";
            out += formatValue(
                static_cast<double>(entry.hist.bucketCount(b)));
        }
        out += "]}";
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
StatsRegistry::csvString() const
{
    std::string out = "# seed=" + std::to_string(meta_.seed) +
                      " config=" +
                      (meta_.configHash.empty() ? "-"
                                                : meta_.configHash) +
                      "\n";
    out += "epoch";
    for (const Entry &entry : entries_) {
        out += ',';
        out += entry.name;
    }
    out += '\n';
    if (snapshots_.empty()) {
        out += "final";
        for (const Entry &entry : entries_) {
            out += ',';
            out += formatValue(sampleEntry(entry));
        }
        out += '\n';
        return out;
    }
    for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        out += formatValue(static_cast<double>(snapshotEpochs_[i]));
        for (double v : epochRow(i)) {
            out += ',';
            out += formatValue(v);
        }
        out += '\n';
    }
    return out;
}

void
StatsRegistry::writeJson(const std::string &path) const
{
    writeString(path, jsonString());
}

void
StatsRegistry::writeCsv(const std::string &path) const
{
    writeString(path, csvString());
}

template <class Ar, class Self>
void
StatsRegistry::checkpointFields(Ar &ar, Self &self)
{
    ar.expectU64("registered stat count", self.entries_.size());
    for (auto &entry : self.entries_) {
        ar.expectB("stat owned/bound kind", entry.isOwned);
        if (entry.isOwned)
            ar.u64(entry.owned);
    }
    ar.expectU64("histogram count", self.histograms_.size());
    for (auto &entry : self.histograms_)
        ar.nested(entry.hist);
    ar.u64Vec(self.snapshotEpochs_);
    // One row per snapshot epoch, one column per entry.
    ar.expectU64("snapshot row count", self.snapshotEpochs_.size());
    if constexpr (Ar::loading)
        self.snapshots_.resize(self.snapshotEpochs_.size());
    for (auto &row : self.snapshots_)
        ar.fixedVec("snapshot row width", row, self.entries_.size());
}

void
StatsRegistry::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
StatsRegistry::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

std::string
configHashHex(const std::string &description)
{
    return hex64(fnv1a64(description.data(), description.size()));
}

} // namespace morphcache
