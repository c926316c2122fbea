/**
 * @file
 * Frozen pre-SoA reference ServingSim bodies - see
 * core/serving_reference.hh. Verbatim snapshot of
 * core/serving_engine.cc before the structure-of-arrays refactor;
 * do not modify.
 */

#include "core/serving_reference.hh"

#include <algorithm>

#include "core/metrics.hh"
#include "sim/logging.hh"

namespace papi::core::refimpl {

namespace {

/** Host power charged against non-GEMV iteration time, watts. */
constexpr double kHostWatts = 50.0;

} // namespace

// --------------------------------------------------------------- ReferenceServingSim

ReferenceServingSim::ReferenceServingSim(const Platform &platform,
                       const llm::SpeculativeConfig &spec,
                       const llm::ModelConfig &model,
                       const ServingOptions &options,
                       IterationCostModel cost,
                       AiEstimateFn fc_estimator,
                       StaticBatchMode static_mode)
    : _platform(platform), _spec(spec), _model(model),
      _options(options), _cost(std::move(cost)), _static(static_mode),
      _kv(model, platform.config().numAttnDevices,
          options.kvCapacityOverrideBytes
              ? options.kvCapacityOverrideBytes
              : platform.config().attnDeviceConfig.capacityBytes()),
      _rng(options.seed),
      _fcDispatch(platform.dispatcher(Phase::Fc, options.alpha,
                                      std::move(fc_estimator))),
      _dynamic(_fcDispatch.rule() == DispatchRule::Threshold),
      _targetIters(platform.targets().size(), 0)
{
    spec.validate();
    if (options.maxRlp == 0)
        sim::fatal("ReferenceServingSim: maxRlp must be >= 1");
    if (options.alpha <= 0.0)
        sim::fatal("ReferenceServingSim: alpha must be positive");
    if (_cost.computeScale <= 0.0)
        sim::fatal("ReferenceServingSim: computeScale must be positive");
    _chunked = options.prefillChunkTokens > 0;
    _preempt = options.preemptOnKvPressure;
    _role = options.role;
    if (_static.enabled && (_chunked || _preempt))
        sim::fatal("ReferenceServingSim: chunked prefill / KV preemption are "
                   "serving-path features; static-batch (decode) "
                   "runs use the monolithic prefill");
    if (_role != ServingRole::Colocated) {
        if (_static.enabled)
            sim::fatal("ReferenceServingSim: static-batch (decode) runs are "
                       "colocated; disaggregated roles are a "
                       "serving-path feature");
        if (options.admission != AdmissionPolicy::TokenLevel)
            sim::fatal("ReferenceServingSim: disaggregated roles require "
                       "token-level admission (batch-level fill "
                       "rules have no meaning on a phase pool)");
    }
    if (_role == ServingRole::Prefill && _preempt)
        sim::fatal("ReferenceServingSim: KV preemption is a decode-side "
                   "feature; a prefill replica frees its KV at "
                   "handoff, so pressure never builds");
    if (_preempt && _options.kvSwapGBps <= 0.0)
        sim::fatal("ReferenceServingSim: kvSwapGBps must be positive");
    if (_options.deadlineSeconds < 0.0)
        sim::fatal("ReferenceServingSim: deadlineSeconds cannot be negative");
    if (_static.enabled && _options.deadlineSeconds > 0.0)
        sim::fatal("ReferenceServingSim: deadlines/load shedding are "
                   "serving-path features; static-batch (decode) "
                   "runs admit the whole batch once");
    _prefillLens.reserve(options.maxRlp);
    _ctx.reserve(options.maxRlp);
}

void
ReferenceServingSim::deliver(const llm::TimedRequest &request)
{
    if (_anchored && request.arrivalSeconds < _lastDelivered)
        sim::fatal("ReferenceServingSim: deliveries must be time-ordered");
    if (!_anchored) {
        _firstArrival = request.arrivalSeconds;
        _now = request.arrivalSeconds;
        _anchored = true;
    }
    _lastDelivered = request.arrivalSeconds;
    _pending.push_back({request, request.arrivalSeconds});
}

void
ReferenceServingSim::redeliver(const llm::TimedRequest &request,
                      double ready_seconds)
{
    if (_static.enabled ||
        _options.admission != AdmissionPolicy::TokenLevel)
        sim::fatal("ReferenceServingSim: retry redelivery requires the "
                   "token-level serving path");
    if (ready_seconds < request.arrivalSeconds)
        sim::fatal("ReferenceServingSim: retry of request ",
                   request.request.id,
                   " cannot precede its original arrival");
    if (_anchored && ready_seconds < _lastDelivered)
        sim::fatal("ReferenceServingSim: deliveries must be time-ordered");
    if (!_anchored) {
        _firstArrival = ready_seconds;
        _now = ready_seconds;
        _anchored = true;
    }
    _lastDelivered = ready_seconds;
    _pending.push_back({request, ready_seconds});
}

void
ReferenceServingSim::deliverPrefilled(const llm::TimedRequest &request,
                             double ready_seconds,
                             std::uint64_t kv_tokens)
{
    if (_role == ServingRole::Prefill)
        sim::fatal("ReferenceServingSim: a prefill-pool replica cannot "
                   "accept migrated KV (request ",
                   request.request.id, ")");
    if (_anchored && ready_seconds < _lastDelivered)
        sim::fatal("ReferenceServingSim: deliveries must be time-ordered");
    if (!_anchored) {
        _firstArrival = ready_seconds;
        _now = ready_seconds;
        _anchored = true;
    }
    _lastDelivered = ready_seconds;
    _pendingPrefilled.push_back({request, ready_seconds, kv_tokens});
}

std::vector<HandoffRecord>
ReferenceServingSim::takeHandoffs()
{
    std::vector<HandoffRecord> out;
    out.swap(_handoffs);
    return out;
}

std::vector<LostRequest>
ReferenceServingSim::crash(double when)
{
    if (_static.enabled)
        sim::fatal("ReferenceServingSim: static-batch (decode) runs have no "
                   "fault model");
    std::vector<LostRequest> lost;
    lost.reserve(_active.size() + _handoffs.size() +
                 _preempted.size() + _pendingPrefilled.size() +
                 _pending.size());
    // Harvest in a fixed order (active, handed off, preempted,
    // migrated-in, queued) so retry schedules are deterministic.
    for (const ActiveRequest &a : _active) {
        LostRequest l;
        l.request.request = a.request;
        l.request.request.generated = 0;
        l.request.arrivalSeconds = a.arrivalSeconds;
        l.request.sessionId = a.sessionId;
        l.admitted = true;
        l.generatedLost = a.request.generated;
        l.prefillLostTokens =
            a.request.inputLen - a.prefillRemaining;
        _kv.release(a.request.id);
        lost.push_back(l);
    }
    _active.clear();
    // Handed-off prefills not yet collected by the driver die with
    // the replica (their KV was released at handoff; the buffered
    // transfer payload is lost).
    for (const HandoffRecord &h : _handoffs) {
        LostRequest l;
        l.request = h.request;
        l.request.request.generated = 0;
        l.admitted = true;
        l.prefillLostTokens = h.request.request.inputLen;
        lost.push_back(l);
    }
    _handoffs.clear();
    // Preempted requests released their device KV at eviction; any
    // swapped-out copy lived on this replica's host and is gone too.
    for (const PreemptedRequest &p : _preempted) {
        LostRequest l;
        l.request.request = p.state.request;
        l.request.request.generated = 0;
        l.request.arrivalSeconds = p.state.arrivalSeconds;
        l.request.sessionId = p.state.sessionId;
        l.admitted = true;
        l.generatedLost = p.state.request.generated;
        l.prefillLostTokens =
            p.state.request.inputLen - p.state.prefillRemaining;
        lost.push_back(l);
    }
    _preempted.clear();
    // Migrated-in prefills awaiting admission: the prompt phase ran
    // on the prefill pool and its product died here unadmitted.
    for (const PrefilledPending &pp : _pendingPrefilled) {
        LostRequest l;
        l.request = pp.request;
        l.request.request.generated = 0;
        l.admitted = false;
        l.prefillLostTokens =
            static_cast<std::uint32_t>(pp.kvTokens);
        lost.push_back(l);
    }
    _pendingPrefilled.clear();
    for (const PendingRequest &p : _pending) {
        LostRequest l;
        l.request = p.request;
        l.request.request.generated = 0;
        l.admitted = false;
        lost.push_back(l);
    }
    _pending.clear();
    _planValid = false;
    _now = std::max(_now, when);
    return lost;
}

void
ReferenceServingSim::restartAt(double when)
{
    // The replica comes back empty and cold; only its clock moves
    // (work charged before the crash stays charged).
    _now = std::max(_now, when);
}

void
ReferenceServingSim::handoffPrefilled(const ActiveRequest &a)
{
    HandoffRecord h;
    h.request.request = a.request;
    h.request.arrivalSeconds = a.arrivalSeconds;
    h.readySeconds = _now;
    h.kvTokens = a.request.contextLen();
    const llm::KvExport kv = _kv.exportRequest(a.request.id);
    h.kvBlocks = kv.blocks;
    h.kvBytes = kv.bytes;
    ++_out.handoffs;
    _out.prefillHandoffTokens += a.request.inputLen;
    _handoffs.push_back(h);
}

void
ReferenceServingSim::handoffCompletedPrefills()
{
    _planValid = false; // the live batch shrinks
    for (auto it = _active.begin(); it != _active.end();) {
        if (it->prefillRemaining == 0) {
            handoffPrefilled(*it);
            it = _active.erase(it);
        } else {
            ++it;
        }
    }
}

std::uint32_t
ReferenceServingSim::fcTokens(std::uint32_t rlp, std::uint32_t tlp) const
{
    std::uint32_t fc_rlp = rlp;
    // The paper's Shortcoming 1: static-batching systems without
    // runtime-RLP tracking execute the padded batch until it drains.
    if (_static.enabled && !_platform.config().tracksRuntimeRlp &&
        _staticInitialRlp > 0)
        fc_rlp = _staticInitialRlp;
    return fc_rlp * tlp;
}

double
ReferenceServingSim::scaledSeconds(double kernel_seconds, double other_seconds,
                          std::uint32_t tokens) const
{
    // The trivial path must not be routed through here: callers keep
    // the original single-platform arithmetic bit-identical.
    double seconds =
        kernel_seconds / _cost.computeScale + other_seconds;
    if (_cost.extraSeconds)
        seconds += _cost.extraSeconds(tokens);
    return seconds;
}

std::uint32_t
ReferenceServingSim::admit()
{
    _planValid = false; // batch may change; a peeked plan is stale
    std::uint32_t admitted = 0;
    _prefillLens.clear();
    // Batch-level scheduling admits only into an empty batch.
    if (_options.admission == AdmissionPolicy::BatchLevel &&
        !_active.empty())
        return admitted;
    const double decision_time = _now;

    // Preemption mode: re-admit evicted requests first (oldest
    // arrival wins), before any newcomer - an evicted request
    // already holds its admission timestamp and must not starve.
    std::uint32_t resumed = 0;
    double swap_seconds = 0.0;
    while (_preempt && !_preempted.empty() &&
           _active.size() < _options.maxRlp) {
        auto best = _preempted.begin();
        for (auto it = std::next(best); it != _preempted.end();
             ++it) {
            if (it->state.arrivalSeconds <
                    best->state.arrivalSeconds ||
                // detlint: allow(float-eq): total-order tie-break in
                // the resume comparator; timestamps are stored stream
                // values, so equality is exact and the id tie-break
                // keeps the order deterministic.
                (it->state.arrivalSeconds ==
                     best->state.arrivalSeconds &&
                 it->state.request.id < best->state.request.id))
                best = it;
        }
        const std::uint32_t ctx = best->state.request.contextLen();
        const bool recompute =
            _options.preemptPolicy == KvPreemptPolicy::Recompute;
        const std::uint64_t footprint =
            recompute ? ctx : std::max<std::uint32_t>(
                                  best->kvTokens, 1);
        // Reserve the candidate's footprint plus its own first
        // iteration's growth on top of the existing batch's
        // headroom, so admission can never force an eviction.
        const std::uint64_t reserve = _kv.blocksForTokens(
            footprint + std::max<std::uint32_t>(
                            _spec.length,
                            _options.prefillChunkTokens));
        if (_kv.freeBlocks() < reserve + worstGrowthBlocks())
            break;
        ActiveRequest a = best->state;
        a.admitSeq = _admitSeqNext++;
        a.stallSeconds += _now - best->preemptSeconds;
        _out.evictionStallSeconds += _now - best->preemptSeconds;
        if (recompute) {
            _out.recomputedPrefillTokens += best->kvTokens;
            if (_chunked) {
                a.prefillRemaining = ctx;
                a.kvTokens = 0;
                _kv.admit(a.request.id, 0);
            } else {
                a.prefillRemaining = 0;
                a.kvTokens = ctx;
                _kv.admit(a.request.id, ctx);
                _prefillLens.push_back(ctx);
            }
        } else {
            // SwapRestore: the KV content survives off-device; pay
            // the transfer back over the attention fabric.
            a.kvTokens = best->kvTokens;
            _kv.admit(a.request.id,
                      std::max<std::uint32_t>(a.kvTokens, 1));
            swap_seconds +=
                static_cast<double>(a.kvTokens) *
                static_cast<double>(_model.kvBytesPerToken()) /
                (_options.kvSwapGBps * 1e9);
        }
        _active.push_back(a);
        _preempted.erase(best);
        ++resumed;
    }

    // Disaggregated decode pool: migrated-in prefills join with
    // their context already materialized - a KV reservation but no
    // prefill charge (the prompt phase ran on the prefill pool).
    while (!_pendingPrefilled.empty() &&
           _pendingPrefilled.front().readySeconds <= _now &&
           _active.size() < _options.maxRlp) {
        const PrefilledPending &pp = _pendingPrefilled.front();
        if (_options.deadlineSeconds > 0.0 &&
            pp.request.arrivalSeconds + _options.deadlineSeconds <=
                _now) {
            // SLO-aware shedding: its first token can no longer
            // land inside the deadline, so admitting it would only
            // burn compute no user is waiting for.
            ++_out.shedRequests;
            _pendingPrefilled.pop_front();
            continue;
        }
        const llm::Request &req = pp.request.request;
        if (!_preempt) {
            // Migration-aware reservation: the migrated footprint
            // is already real, the worst case adds the full output.
            const std::uint64_t worst =
                pp.kvTokens + req.outputLen;
            if (!_kv.canAdmit(worst))
                break;
            _kv.admit(req.id, worst);
        } else {
            // On-demand mode: import the migrated footprint plus
            // this request's own first-iteration growth, keeping
            // headroom for the existing batch (admission must never
            // force an eviction by itself).
            const std::uint64_t reserve = _kv.blocksForTokens(
                pp.kvTokens + _spec.length);
            if (_kv.freeBlocks() < reserve + worstGrowthBlocks())
                break;
            _kv.importRequest(req.id, pp.kvTokens);
        }
        ActiveRequest a;
        a.request = req;
        a.arrivalSeconds = pp.request.arrivalSeconds;
        a.admissionSeconds = decision_time;
        a.admitSeq = _admitSeqNext++;
        a.prefillRemaining = 0;
        a.kvTokens = static_cast<std::uint32_t>(pp.kvTokens);
        a.sessionId = pp.request.sessionId;
        _active.push_back(a);
        _pendingPrefilled.pop_front();
        ++admitted;
    }

    while (!_pending.empty() &&
           _pending.front().readySeconds <= _now &&
           _active.size() < _options.maxRlp) {
        if (_options.deadlineSeconds > 0.0 &&
            _pending.front().request.arrivalSeconds +
                    _options.deadlineSeconds <= _now) {
            ++_out.shedRequests;
            _pending.pop_front();
            continue;
        }
        const llm::Request &req = _pending.front().request.request;
        if (!_static.enabled) {
            if (!_preempt) {
                // Reserve the worst case so growth can never fail.
                // A prefill-pool replica never decodes, so its
                // worst case is the prompt footprint alone.
                std::uint64_t worst =
                    static_cast<std::uint64_t>(req.inputLen) +
                    (_role == ServingRole::Prefill ? 0
                                                   : req.outputLen);
                if (!_kv.canAdmit(worst))
                    break;
                _kv.admit(req.id, worst);
            } else {
                // Reserve the prompt footprint plus this request's
                // own first-iteration growth, and keep headroom for
                // the existing batch's next iteration - admission
                // must never trigger an eviction by itself.
                const std::uint64_t reserve = _kv.blocksForTokens(
                    static_cast<std::uint64_t>(req.inputLen) +
                    std::max<std::uint32_t>(
                        _spec.length,
                        _options.prefillChunkTokens));
                if (_kv.freeBlocks() <
                    reserve + worstGrowthBlocks())
                    break;
                _kv.admit(req.id, _chunked ? 0 : req.inputLen);
            }
        }
        ActiveRequest a;
        a.request = req;
        a.arrivalSeconds = _pending.front().request.arrivalSeconds;
        a.admissionSeconds = decision_time;
        a.admitSeq = _admitSeqNext++;
        a.sessionId = _pending.front().request.sessionId;
        if (_chunked) {
            a.prefillRemaining = req.inputLen;
        } else {
            a.kvTokens = req.inputLen;
            _prefillLens.push_back(a.request.inputLen);
        }
        _active.push_back(a);
        _pending.pop_front();
        ++admitted;
    }
    if (admitted > 0 && _static.enabled)
        _staticInitialRlp = admitted;
    if (!_prefillLens.empty() &&
        (!_static.enabled || _static.includePrefill)) {
        // Prefill the newcomers before the next decode step.
        KernelExec pre = _platform.prefillExec(_model, _prefillLens);
        double pre_seconds = pre.seconds;
        double pre_joules = pre.energyJoules;
        if (!_cost.trivial()) {
            std::uint64_t prompt_tokens = 0;
            for (std::uint32_t len : _prefillLens)
                prompt_tokens += len;
            const auto tokens =
                static_cast<std::uint32_t>(prompt_tokens);
            pre_seconds = scaledSeconds(pre.seconds, 0.0, tokens);
            if (_cost.extraJoules)
                pre_joules += _cost.extraJoules(tokens);
        }
        _now += pre_seconds;
        _busySeconds += pre_seconds;
        _breakdown.prefillSeconds += pre_seconds;
        _out.energyJoules += pre_joules;
    }
    if (swap_seconds > 0.0) {
        _now += swap_seconds;
        _busySeconds += swap_seconds;
        _breakdown.commSeconds += swap_seconds;
        // The lump-sum swap-in advance delays every live request at
        // this admit boundary, not just the resumed ones; attribute
        // the induced stall to all of them so preemption-stall
        // percentiles stay conservative.
        for (auto &a : _active)
            a.stallSeconds += swap_seconds;
        _out.swapInducedStallSeconds +=
            swap_seconds * static_cast<double>(_active.size());
    }
    // Prefill-pool replica: every request whose prompt phase just
    // completed (the whole non-chunked admission wave) retires into
    // the handoff queue instead of decoding here.
    if (_role == ServingRole::Prefill && !_active.empty())
        handoffCompletedPrefills();
    if (admitted > 0)
        _out.admissions += admitted;
    _out.resumes += resumed;
    return admitted + resumed;
}

void
ReferenceServingSim::stepIdle()
{
    if (hasActive())
        sim::panic("ReferenceServingSim::stepIdle with a live batch");
    if (!hasPending())
        sim::panic("ReferenceServingSim::stepIdle with nothing pending");

    // Shedding can drain the entire eligible prefix inside admit()
    // without forming a batch, so fast-forward / admit loops until a
    // batch forms or nothing is left to try.
    for (;;) {
        // Idle until the next deliverable work item (a plain arrival
        // or a migrated-in prefill, whichever is earlier). Retries
        // become eligible at their backoff-delayed ready time, not
        // their original arrival.
        double next_work;
        if (_pendingPrefilled.empty()) {
            next_work = _pending.front().readySeconds;
        } else if (_pending.empty()) {
            next_work = _pendingPrefilled.front().readySeconds;
        } else {
            next_work =
                std::min(_pending.front().readySeconds,
                         _pendingPrefilled.front().readySeconds);
        }
        _now = std::max(_now, next_work);
        if (_options.admission == AdmissionPolicy::BatchLevel &&
            _pending.size() >= _options.maxRlp) {
            // Dynamic batching: if a full batch is already waiting,
            // start once the last member has arrived.
            _now = std::max(_now, _pending[_options.maxRlp - 1]
                                      .request.arrivalSeconds);
        } else if (_options.admission == AdmissionPolicy::BatchLevel) {
            // Otherwise wait out the fill timeout (or until the
            // batch fills, whichever comes first).
            double deadline =
                _pending.front().request.arrivalSeconds +
                _options.batchTimeoutSeconds;
            std::size_t fills = std::min<std::size_t>(
                _pending.size(), _options.maxRlp);
            double full_at =
                _pending[fills - 1].request.arrivalSeconds;
            _now = std::max(_now, std::min(deadline, full_at));
        }
        if (admit() > 0 || hasActive())
            return;
        if (!hasPending())
            return; // everything eligible was shed
        const bool eligible_front =
            (!_pending.empty() &&
             _pending.front().readySeconds <= _now) ||
            (!_pendingPrefilled.empty() &&
             _pendingPrefilled.front().readySeconds <= _now);
        if (eligible_front) {
            const std::uint64_t id =
                !_pending.empty()
                    ? _pending.front().request.request.id
                    : _pendingPrefilled.front().request.request.id;
            sim::fatal("ReferenceServingSim: request ", id,
                       " cannot be admitted into an empty batch (KV "
                       "worst-case footprint exceeds the Attn-PIM "
                       "pool)");
        }
        // Only not-yet-ready work remains; idle forward to it.
    }
}

ReferenceServingSim::IterationTiming
ReferenceServingSim::iterationTiming(TargetId target, std::uint32_t tokens,
                            std::uint32_t tlp) const
{
    _ctx.clear();
    for (const auto &a : _active)
        _ctx.push_back(a.request.contextLen());

    IterationTiming t;
    t.fc = _platform.fcExec(_model, tokens, target);
    t.at = _platform.attnExec(_model, _ctx, tlp);
    t.other = _platform.otherSeconds(_model);
    if (_static.enabled) {
        // The draft model's serial proposal pass (speculative
        // decoding): charged as a fraction of the verification cost.
        if (_spec.length > 1 && _spec.draftCostFraction > 0.0)
            t.other += _spec.draftCostFraction *
                       (t.fc.seconds + t.at.seconds);
        // Kernels within a layer are dependent, so by default the
        // phases serialize (FC -> attention -> FC ...). Platforms
        // with sub-batch interleaving can hide a fraction of the
        // shorter phase under the longer one.
        t.hidden = _platform.config().phaseOverlapFraction *
                   std::min(t.fc.seconds, t.at.seconds);
    }
    t.seconds =
        _cost.trivial()
            ? t.fc.seconds + t.at.seconds - t.hidden + t.other
            : scaledSeconds(t.fc.seconds + t.at.seconds, t.other,
                            tokens);
    return t;
}

void
ReferenceServingSim::planChunks(std::vector<std::uint32_t> &chunks) const
{
    chunks.assign(_active.size(), 0);
    std::uint32_t budget = _options.prefillChunkTokens;
    // _active is kept in admission order, so the shared chunk
    // budget drains oldest-admission-first.
    for (std::size_t i = 0; i < _active.size() && budget > 0; ++i) {
        const ActiveRequest &a = _active[i];
        if (a.prefillRemaining == 0)
            continue;
        const std::uint32_t c =
            std::min(a.prefillRemaining, budget);
        chunks[i] = c;
        budget -= c;
    }
}

ReferenceServingSim::IterationPlan
ReferenceServingSim::planIteration() const
{
    IterationPlan p;
    planChunks(_chunkPlan);
    _ctx.clear();
    _chunkPrior.clear();
    _chunkNow.clear();
    std::uint32_t chunk_tokens = 0;
    for (std::size_t i = 0; i < _active.size(); ++i) {
        const ActiveRequest &a = _active[i];
        if (a.prefillRemaining == 0) {
            _ctx.push_back(a.request.contextLen());
            ++p.decodeRlp;
        } else if (_chunkPlan[i] > 0) {
            // Prefill total for costing is the full context being
            // (re)built - contextLen() is constant while a request
            // prefills, and covers recompute resumes.
            _chunkPrior.push_back(a.request.contextLen() -
                                  a.prefillRemaining);
            _chunkNow.push_back(_chunkPlan[i]);
            chunk_tokens += _chunkPlan[i];
        }
    }
    const std::uint32_t tlp = _spec.length;
    p.tokens = fcTokens(p.decodeRlp, tlp);
    p.chunkTokens = chunk_tokens;
    double kernel = 0.0;
    double other = 0.0;
    if (p.decodeRlp > 0) {
        p.decision =
            _fcDispatch.select(_model, p.decodeRlp, tlp, p.tokens);
        p.dispatched = true;
        p.timing.fc = _platform.fcExec(_model, p.tokens,
                                       p.decision.target);
        p.timing.at = _platform.attnExec(_model, _ctx, tlp);
        other = _platform.otherSeconds(_model);
        p.timing.other = other;
        kernel = p.timing.fc.seconds + p.timing.at.seconds;
    }
    if (!_chunkNow.empty())
        p.chunk = _platform.prefillChunkExec(_model, _chunkPrior,
                                             _chunkNow);
    kernel += p.chunk.seconds;
    p.seconds = _cost.trivial()
                    ? kernel + other
                    : scaledSeconds(kernel, other,
                                    p.tokens + chunk_tokens);
    return p;
}

void
ReferenceServingSim::refreshPlan() const
{
    if (_planValid)
        return;
    if (_chunked) {
        _plan = planIteration();
    } else {
        const auto rlp = static_cast<std::uint32_t>(_active.size());
        const std::uint32_t tlp = _spec.length;
        const std::uint32_t tokens = fcTokens(rlp, tlp);
        IterationPlan p;
        p.decodeRlp = rlp;
        p.tokens = tokens;
        p.decision = _fcDispatch.select(_model, rlp, tlp, tokens);
        p.dispatched = true;
        p.timing = iterationTiming(p.decision.target, tokens, tlp);
        p.seconds = p.timing.seconds;
        _plan = p;
    }
    _planValid = true;
}

bool
ReferenceServingSim::noteDispatch(TargetId target)
{
    bool rescheduled = false;
    if (_dynamic) {
        const bool was_gpu =
            _schedStarted &&
            _platform.targets().at(_prevTarget).kind ==
                TargetKind::Gpu;
        const bool is_gpu =
            _platform.targets().at(target).kind == TargetKind::Gpu;
        rescheduled = _schedStarted && target != _prevTarget;
        if (rescheduled)
            ++_out.reschedules;
        if (_schedStarted && is_gpu && !was_gpu)
            ++_out.reschedulesToGpu;
        _prevTarget = target;
        _schedStarted = true;
    }
    return rescheduled;
}

void
ReferenceServingSim::recordRetirement(const ActiveRequest &a)
{
    _latencies.push_back(_now - a.arrivalSeconds);
    RequestRecord rec;
    rec.id = a.request.id;
    rec.arrivalSeconds = a.arrivalSeconds;
    rec.admissionSeconds = a.admissionSeconds;
    rec.firstTokenSeconds =
        a.firstTokenSeen ? a.firstTokenSeconds : _now;
    rec.finishSeconds = _now;
    rec.outputTokens = a.request.outputLen;
    rec.preemptions = a.preemptions;
    rec.stallSeconds = a.stallSeconds;
    _records.push_back(rec);
}

double
ReferenceServingSim::peekIterationSeconds() const
{
    if (_active.empty())
        sim::panic("ReferenceServingSim::peekIterationSeconds without a batch");
    refreshPlan();
    return _plan.seconds;
}

void
ReferenceServingSim::stepDecode()
{
    if (_active.empty())
        sim::panic("ReferenceServingSim::stepDecode without a batch");
    if (_chunked)
        stepDecodeChunked();
    else
        stepDecodeLegacy();
}

void
ReferenceServingSim::stepDecodeLegacy()
{
    // Per-iteration decisions are stateless threshold checks (so
    // the plan a driver peeked is the plan executed here); RLP
    // transitions in both directions are counted below.
    refreshPlan();
    const IterationPlan plan = _plan;
    _planValid = false;
    const std::uint32_t rlp = plan.decodeRlp;
    const std::uint32_t tokens = plan.tokens;
    const TargetId target = plan.decision.target;
    const bool rescheduled = noteDispatch(target);

    IterationTiming t = plan.timing;
    const double iter_seconds = t.seconds;

    // Per-component accounting. The overlap-hidden time executes
    // under the longer phase, so the shorter phase's contributions
    // shrink (compute first, then its communication share).
    double fc_part = t.fc.seconds - t.fc.commSeconds;
    double at_part = t.at.seconds - t.at.commSeconds;
    double comm_part = t.fc.commSeconds + t.at.commSeconds;
    if (t.hidden > 0.0) {
        double &shorter =
            t.fc.seconds <= t.at.seconds ? fc_part : at_part;
        double deduct = std::min(t.hidden, shorter);
        shorter -= deduct;
        comm_part -= t.hidden - deduct;
    }
    // Under a tensor-parallel cost model the charged duration is the
    // scaled one; keep the breakdown in the same units (the group's
    // all-reduce counts as communication) so it still sums to the
    // busy time.
    if (!_cost.trivial()) {
        fc_part /= _cost.computeScale;
        at_part /= _cost.computeScale;
        comm_part /= _cost.computeScale;
        if (_cost.extraSeconds)
            comm_part += _cost.extraSeconds(tokens);
    }
    _breakdown.fcSeconds += fc_part;
    _breakdown.attnSeconds += at_part;
    _breakdown.commSeconds += comm_part;
    _breakdown.otherSeconds += t.other;

    _rlpTimeIntegral += iter_seconds * rlp;
    _busySeconds += iter_seconds;
    _now += iter_seconds;
    // Energy accumulation preserves each pre-fold loop's exact
    // floating-point association: the decode loop added the device
    // and host terms separately, the serving loop added one sum.
    if (_static.enabled) {
        _out.energyJoules += t.fc.energyJoules + t.at.energyJoules;
        _out.energyJoules += t.other * kHostWatts;
    } else {
        double iter_joules = t.fc.energyJoules + t.at.energyJoules +
                             t.other * kHostWatts;
        if (!_cost.trivial() && _cost.extraJoules)
            iter_joules += _cost.extraJoules(tokens);
        _out.energyJoules += iter_joules;
    }
    ++_out.iterations;
    ++_targetIters[target];
    if (_platform.targets().at(target).kind == TargetKind::Gpu)
        ++_out.fcOnGpuIterations;
    else
        ++_out.fcOnPimIterations;

    if (!_static.enabled)
        _out.peakKvUtilization = std::max(
            _out.peakKvUtilization, _kv.occupancy().utilization());

    // Advance generation; retire finished requests.
    std::uint32_t accepted = _spec.sampleAccepted(_rng);
    std::uint32_t eos = 0;
    for (auto it = _active.begin(); it != _active.end();) {
        std::uint32_t used = it->request.advance(accepted);
        _out.tokensGenerated += used;
        if (used > 0 && !it->firstTokenSeen) {
            it->firstTokenSeconds = _now;
            it->firstTokenSeen = true;
        }
        if (it->request.finished()) {
            ++eos;
            recordRetirement(*it);
            if (!_static.enabled)
                _kv.release(it->request.id);
            it = _active.erase(it);
        } else {
            ++it;
        }
    }

    if (_preempt) {
        // On-demand accounting: materialize the tokens this
        // iteration appended, then restore the next iteration's
        // worst-case growth headroom (evicting if pressure hit).
        for (auto &a : _active) {
            const std::uint32_t ctx = a.request.contextLen();
            if (ctx > a.kvTokens) {
                a.kvTokens = ctx;
                _kv.grow(a.request.id, ctx);
            }
        }
        ensureKvHeadroom();
        _out.peakKvUtilization = std::max(
            _out.peakKvUtilization, _kv.occupancy().utilization());
    }

    if (_static.recordTrace) {
        IterationTrace tr;
        tr.iteration = _out.iterations;
        tr.rlp = rlp;
        tr.tlp = _spec.length;
        tr.estimatedAi = _dynamic ? plan.decision.estimatedAi : 0.0;
        tr.targetId = target;
        tr.rescheduled = rescheduled;
        tr.eosCount = eos;
        tr.iterationSeconds = iter_seconds;
        _trace.push_back(tr);
    }
}

void
ReferenceServingSim::stepDecodeChunked()
{
    // refreshPlan also refilled _chunkPlan (via planIteration),
    // which the progress loop below consumes; any mutation since a
    // peek would have invalidated the cache.
    refreshPlan();
    const IterationPlan plan = _plan;
    _planValid = false;

    if (plan.dispatched)
        noteDispatch(plan.decision.target);

    // Per-component accounting: decode FC/attention split as the
    // legacy path does, prompt chunks under prefill.
    double fc_part =
        plan.timing.fc.seconds - plan.timing.fc.commSeconds;
    double at_part =
        plan.timing.at.seconds - plan.timing.at.commSeconds;
    double comm_part =
        plan.timing.fc.commSeconds + plan.timing.at.commSeconds;
    double chunk_part = plan.chunk.seconds;
    if (!_cost.trivial()) {
        fc_part /= _cost.computeScale;
        at_part /= _cost.computeScale;
        comm_part /= _cost.computeScale;
        chunk_part /= _cost.computeScale;
        if (_cost.extraSeconds)
            comm_part += plan.seconds -
                         (fc_part + at_part + comm_part +
                          chunk_part + plan.timing.other);
    }
    _breakdown.fcSeconds += fc_part;
    _breakdown.attnSeconds += at_part;
    _breakdown.commSeconds += comm_part;
    _breakdown.prefillSeconds += chunk_part;
    _breakdown.otherSeconds += plan.timing.other;

    const auto live = static_cast<std::uint32_t>(_active.size());
    _rlpTimeIntegral += plan.seconds * live;
    _busySeconds += plan.seconds;
    _now += plan.seconds;

    double iter_joules =
        plan.chunk.energyJoules + plan.timing.other * kHostWatts;
    if (plan.dispatched)
        iter_joules += plan.timing.fc.energyJoules +
                       plan.timing.at.energyJoules;
    // Tokens in the fabric-energy term mirror the ones in the
    // fabric-time term (scaledSeconds): decode plus prefill chunks.
    if (!_cost.trivial() && _cost.extraJoules)
        iter_joules +=
            _cost.extraJoules(plan.tokens + plan.chunkTokens);
    _out.energyJoules += iter_joules;
    ++_out.iterations;
    if (plan.dispatched) {
        ++_targetIters[plan.decision.target];
        if (_platform.targets().at(plan.decision.target).kind ==
            TargetKind::Gpu)
            ++_out.fcOnGpuIterations;
        else
            ++_out.fcOnPimIterations;
    }

    // Freeze the decode set before prefill progress: a request
    // whose prefill completes in THIS iteration starts decoding at
    // the NEXT one (its chunk was costed, its decode was not).
    _decoding.assign(_active.size(), 0);
    for (std::size_t i = 0; i < _active.size(); ++i)
        _decoding[i] = _active[i].prefillRemaining == 0;

    // Prefill progress; materialize the chunk's KV.
    for (std::size_t i = 0; i < _active.size(); ++i) {
        if (_chunkPlan[i] == 0)
            continue;
        ActiveRequest &a = _active[i];
        a.prefillRemaining -= _chunkPlan[i];
        if (_preempt) {
            a.kvTokens += _chunkPlan[i];
            _kv.grow(a.request.id,
                     std::max<std::uint32_t>(a.kvTokens, 1));
        }
    }

    // Advance the decoders; requests still prefilling produce no
    // tokens this iteration (their TTFT reflects the chunk delay).
    std::uint32_t accepted =
        plan.decodeRlp > 0 ? _spec.sampleAccepted(_rng) : 0;
    std::size_t idx = 0;
    for (auto it = _active.begin(); it != _active.end(); ++idx) {
        if (!_decoding[idx]) {
            ++it;
            continue;
        }
        std::uint32_t used = it->request.advance(accepted);
        _out.tokensGenerated += used;
        if (used > 0 && !it->firstTokenSeen) {
            it->firstTokenSeconds = _now;
            it->firstTokenSeen = true;
        }
        if (_preempt && used > 0) {
            it->kvTokens += used;
            _kv.grow(it->request.id, it->kvTokens);
        }
        if (it->request.finished()) {
            recordRetirement(*it);
            _kv.release(it->request.id);
            it = _active.erase(it);
        } else {
            ++it;
        }
    }

    if (_preempt)
        ensureKvHeadroom();
    _out.peakKvUtilization = std::max(
        _out.peakKvUtilization, _kv.occupancy().utilization());

    // Prefill-pool replica: requests whose last chunk just ran are
    // done here - retire them into the handoff queue for migration
    // instead of letting them join the decode set.
    if (_role == ServingRole::Prefill)
        handoffCompletedPrefills();
}

std::uint64_t
ReferenceServingSim::worstGrowthBlocks() const
{
    std::uint64_t need = 0;
    if (_chunked)
        planChunks(_chunkPlan);
    for (std::size_t i = 0; i < _active.size(); ++i) {
        const ActiveRequest &a = _active[i];
        std::uint64_t target;
        if (_chunked && a.prefillRemaining > 0) {
            target = std::max<std::uint64_t>(
                a.kvTokens + _chunkPlan[i], 1);
        } else {
            // Next decode iteration appends at most TLP tokens,
            // clipped at the request's remaining output.
            const std::uint32_t rem =
                a.request.outputLen - a.request.generated;
            target = a.request.contextLen() +
                     std::min(_spec.length, rem);
        }
        need += _kv.growthBlocks(a.request.id, target);
    }
    return need;
}

void
ReferenceServingSim::preemptYoungest()
{
    std::size_t victim = 0;
    for (std::size_t i = 1; i < _active.size(); ++i) {
        if (_active[i].admitSeq > _active[victim].admitSeq)
            victim = i;
    }
    ActiveRequest a = _active[victim];
    _active.erase(_active.begin() +
                  static_cast<std::ptrdiff_t>(victim));
    _kv.release(a.request.id);
    if (_options.preemptPolicy == KvPreemptPolicy::SwapRestore) {
        // The swap-out leg of the transfer is paid here; the
        // swap-in leg at resume (admit). Recompute frees for free -
        // its cost is the re-prefill.
        const double out_seconds =
            static_cast<double>(a.kvTokens) *
            static_cast<double>(_model.kvBytesPerToken()) /
            (_options.kvSwapGBps * 1e9);
        _now += out_seconds;
        _busySeconds += out_seconds;
        _breakdown.commSeconds += out_seconds;
        // The lump-sum swap-out delays every surviving request;
        // attribute the induced stall (the victim's own stall clock
        // starts at the post-swap _now, so it is not double-counted).
        for (auto &s : _active)
            s.stallSeconds += out_seconds;
        _out.swapInducedStallSeconds +=
            out_seconds * static_cast<double>(_active.size());
    }
    ++a.preemptions;
    PreemptedRequest pr;
    pr.kvTokens = a.kvTokens;
    pr.preemptSeconds = _now;
    pr.state = std::move(a);
    _out.evictionOrder.push_back(pr.state.request.id);
    ++_out.preemptions;
    _preempted.push_back(std::move(pr));
}

void
ReferenceServingSim::ensureKvHeadroom()
{
    while (_active.size() > 1 &&
           worstGrowthBlocks() > _kv.freeBlocks())
        preemptYoungest();
    if (!_active.empty() &&
        worstGrowthBlocks() > _kv.freeBlocks())
        sim::fatal("ReferenceServingSim: KV pool cannot hold even a single "
                   "request's next-iteration growth (request ",
                   _active.front().request.id,
                   "); the Attn-PIM capacity is too small for this "
                   "workload");
}

void
ReferenceServingSim::step()
{
    if (!hasActive()) {
        stepIdle();
        return;
    }
    stepDecode();
    // Token-level scheduling: admit newcomers immediately.
    admit();
}

ServingResult
ReferenceServingSim::finish()
{
    _out.makespanSeconds = _now - _firstArrival;
    _out.meanRlp = _busySeconds > 0.0
                       ? _rlpTimeIntegral / _busySeconds
                       : 0.0;

    if (!_latencies.empty()) {
        double sum = 0.0;
        for (double l : _latencies)
            sum += l;
        _out.meanLatencySeconds =
            sum / static_cast<double>(_latencies.size());
        std::sort(_latencies.begin(), _latencies.end());
        _out.p95LatencySeconds = percentileSorted(_latencies, 0.95);
    }
    return _out;
}

} // namespace papi::core::refimpl
