/**
 * @file
 * Implementation of the System trace generator.
 */

#include "workload/system.hh"

#include <algorithm>

#include "support/logging.hh"

namespace oma
{

namespace
{

/** Countdown used when an event class is disabled. */
constexpr std::uint64_t never = ~0ULL / 2;

std::uint64_t
draw(Rng &rng, double rate)
{
    return rate <= 0.0 ? never : rng.geometric(rate);
}

} // namespace

CodeRegion
System::appCode(const WorkloadParams &wl)
{
    CodeRegion code;
    code.base = layout::userTextBase;
    code.footprint = wl.codeFootprint;
    code.skew = wl.codeSkew;
    code.meanRun = wl.meanRun;
    code.meanIterations = wl.meanIterations;
    return code;
}

DataBehavior
System::appData(const WorkloadParams &wl)
{
    DataBehavior d;
    d.loadPerInstr = wl.loadPerInstr;
    d.storePerInstr = wl.storePerInstr;
    d.stackBase = layout::userStackBase;
    d.stackBytes = wl.stackBytes;
    d.wsBase = layout::userWsBase;
    d.wsBytes = wl.wsBytes;
    d.wsSkew = wl.wsSkew;
    d.streamFracLoad = wl.streamFracLoad;
    d.streamFracStore = wl.streamFracStore;
    d.storeBurstMean = wl.storeBurstMean;
    d.streamBase = layout::userStreamBase;
    d.streamBytes = wl.streamBytes;
    d.streamStride = wl.streamStride;
    return d;
}

System::System(const WorkloadParams &workload, OsKind os_kind,
               std::uint64_t seed)
    : _workload(workload),
      _os(makeOsModel(os_kind, seed)),
      _appSpace(layout::appAsid, seed),
      _app(workload.name, _appSpace, Mode::User, appCode(workload),
           appData(workload), mix64(seed ^ 0xa9905eadULL)),
      _rng(mix64(seed ^ 0x5157))
{
    _appSpace.addLinearSegment(layout::userTextBase,
                               workload.codeFootprint);
    _appSpace.addLinearSegment(layout::userStackBase,
                               workload.stackBytes);
    _os->attachApp(_appSpace, _app.dataBehavior());
    _toSyscall = draw(_rng, _workload.syscallPerInstr);
    _toFrame = draw(_rng, _workload.framePerInstr);
    _toTimer = draw(_rng, _workload.timerPerInstr);
    _toVm = draw(_rng, _workload.vmPerInstr);
}

ServiceRequest
System::drawRequest()
{
    double total = 0.0;
    for (const auto &entry : _workload.syscalls)
        total += entry.weight;
    fatalIf(total <= 0.0, "workload has an empty syscall mix: " +
            _workload.name);

    double pick = _rng.uniform() * total;
    const SyscallMixEntry *chosen = &_workload.syscalls.back();
    for (const auto &entry : _workload.syscalls) {
        pick -= entry.weight;
        if (pick <= 0.0) {
            chosen = &entry;
            break;
        }
    }

    ServiceRequest req;
    req.kind = chosen->kind;
    if (chosen->meanBytes > 0) {
        // +/- 50% jitter, word aligned.
        req.bytes = (chosen->meanBytes / 2 +
                     _rng.below(chosen->meanBytes + 1)) & ~3ULL;
    }
    const DataBehavior &d = _app.dataBehavior();
    req.userBufferVa = d.streamBase + (_bufCursor % d.streamBytes);
    _bufCursor += req.bytes;
    return req;
}

void
System::step()
{
    const std::uint64_t max_burst = 4000;
    std::uint64_t burst = std::min(
        {_toSyscall, _toFrame, _toTimer, _toVm, max_burst});
    if (burst > 0)
        _app.run(burst, _buffer);

    _toSyscall -= burst;
    _toFrame -= burst;
    _toTimer -= burst;
    _toVm -= burst;

    if (_toSyscall == 0) {
        _os->invokeService(_app, drawRequest(), _buffer);
        if (_syscallBurstLeft > 0) {
            --_syscallBurstLeft;
            _toSyscall = draw(_rng, 1.0 / _workload.syscallBurstGap);
        } else {
            const double burst =
                std::max(1.0, _workload.syscallBurstMean);
            _syscallBurstLeft = burst <= 1.0
                ? 0
                : _rng.geometric(1.0 / burst) - 1;
            // Pick the long gap so the mean rate stays at
            // syscallPerInstr across the whole burst cycle.
            const double cycle = burst / _workload.syscallPerInstr;
            const double long_gap = std::max(
                1.0, cycle - double(_syscallBurstLeft) *
                         _workload.syscallBurstGap);
            _toSyscall = draw(_rng, 1.0 / long_gap);
        }
    }
    if (_toFrame == 0) {
        _os->displayFrame(_app, _workload.frameBytes, _buffer);
        _toFrame = draw(_rng, _workload.framePerInstr);
    }
    if (_toTimer == 0) {
        _os->timerTick(_buffer);
        _toTimer = draw(_rng, _workload.timerPerInstr);
    }
    if (_toVm == 0) {
        _os->vmActivity(_app, _buffer);
        _toVm = draw(_rng, _workload.vmPerInstr);
    }
}

bool
System::next(MemRef &ref)
{
    while (_pos >= _buffer.refs.size()) {
        _buffer.refs.clear();
        _pos = 0;
        step();
    }
    ref = _buffer.refs[_pos++];
    if (ref.isFetch()) {
        ++_totalInstr;
        if (ref.mode == Mode::User && ref.asid == layout::appAsid &&
            ref.vaddr < layout::emulTextBase) {
            ++_appInstr;
        }
    }
    return true;
}

RecordedTrace
System::record(std::uint64_t max_refs)
{
    RecordedTrace trace;
    recordInto(trace, max_refs);
    return trace;
}

void
System::recordInto(RecordedTrace &trace, std::uint64_t refs)
{
    setInvalidateHook(
        [&trace](std::uint64_t vpn, std::uint32_t asid, bool global) {
            trace.recordInvalidation(vpn, asid, global);
        });
    MemRef ref;
    std::uint64_t consumed = 0;
    while (consumed < refs && next(ref)) {
        trace.append(ref);
        ++consumed;
    }
    setInvalidateHook(nullptr);
    trace.setOtherCpi(otherCpiSoFar());
}

double
System::userInstructionFraction() const
{
    return _totalInstr == 0
        ? 0.0
        : double(_appInstr) / double(_totalInstr);
}

double
System::otherCpiSoFar() const
{
    const double user = userInstructionFraction();
    return _workload.userOtherCpi * user +
        _workload.kernelOtherCpi * (1.0 - user);
}

} // namespace oma
