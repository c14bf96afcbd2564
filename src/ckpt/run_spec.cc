#include "ckpt/run_spec.hh"

#include <cstdio>

namespace morphcache {

std::string
describe(const RunSpec &spec)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "workload=%s scheme=%s cores=%u epochs=%u refs=%llu "
        "paperScale=%d check=%s quarantine=%u injectSeed=%llu "
        "injectAcfv=%u injectClass=%g injectIllegal=%g "
        "injectBusDrop=%g injectBusDelay=%g",
        spec.workload.c_str(), spec.scheme.c_str(), spec.cores,
        spec.epochs, static_cast<unsigned long long>(spec.refs),
        spec.paperScale ? 1 : 0, spec.checkPolicy.c_str(),
        spec.quarantine,
        static_cast<unsigned long long>(spec.faults.seed),
        spec.faults.acfvFlipsPerEpoch,
        spec.faults.classificationFlipChance,
        spec.faults.illegalTopologyChance, spec.faults.busDropChance,
        spec.faults.busDelayChance);
    return buf;
}

std::uint64_t
specHash(const RunSpec &spec)
{
    const std::string desc = describe(spec);
    return fnv1a64(desc.data(), desc.size());
}

namespace {

template <class Ar, class Spec>
void
specFields(Ar &ar, Spec &spec)
{
    ar.str(spec.workload);
    ar.str(spec.scheme);
    ar.u32(spec.cores);
    ar.u32(spec.epochs);
    ar.u64(spec.refs);
    ar.u64(spec.seed);
    ar.b(spec.paperScale);
    ar.str(spec.checkPolicy);
    ar.u32(spec.quarantine);
    auto &faults = spec.faults;
    ar.u64(faults.seed);
    ar.u32(faults.acfvFlipsPerEpoch);
    ar.f64(faults.classificationFlipChance);
    ar.f64(faults.illegalTopologyChance);
    // The grant-fault cycles are constants of the bus model; their
    // slots stay so every SPEC section keeps its bytes.
    ar.f64(faults.busDropChance);
    ar.expectU64("dropped-grant cycles", busTxnCpuCycles);
    ar.f64(faults.busDelayChance);
    ar.expectU64("delayed-grant cycles", cpuCyclesPerBusCycle);
}

} // namespace

void
saveSpec(CkptWriter &w, const RunSpec &spec)
{
    specFields(w, spec);
}

RunSpec
loadSpec(CkptReader &r)
{
    RunSpec spec;
    specFields(r, spec);
    return spec;
}

} // namespace morphcache
