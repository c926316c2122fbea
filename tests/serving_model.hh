/**
 * @file
 * ServingModel: an executable specification of core::ServingSim for
 * the lockstep tests (tests/serving_lockstep.hh). It has ServingSim's
 * constructor and stepping API, and every value both expose must
 * agree bit for bit, but none of ServingSim's speed layers: the batch
 * is a vector of ActiveSnapshot structs in admission order, one plan
 * function runs on every peek and every step, one decode step serves
 * every mode, and there is no memo, no steady-state algebra and no
 * bulk KV growth. It grows every decoder's KV every iteration, where
 * ServingSim grows only requests that cross into a new block, and it
 * sums the worst-case growth for every headroom check, where
 * ServingSim first tries an O(1) bound. It validates nothing: the
 * tests drive ServingSim with the same inputs first, and ServingSim
 * keeps every check. Platform, PhaseDispatcher and
 * llm::KvCacheManager (through handles) are shared with ServingSim.
 *
 * Four rules are choices, not consequences of the features; the model
 * keeps them as ServingSim's comments state them:
 *  - Monolithic on-demand runs retire before they grow the survivors;
 *    chunked ones grow each decoder before later requests retire. The
 *    order decides which cached prefix blocks get evicted.
 *  - Monolithic runs also sample KV utilization before the advance.
 *  - Static batches add device and host energy separately.
 *  - Under a tensor-parallel cost model, communication takes the
 *    residual of the charged duration, in every mode.
 * ServingOptions::recordCapacity is not modelled.
 */

#ifndef PAPI_TESTS_SERVING_MODEL_HH
#define PAPI_TESTS_SERVING_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <utility>
#include <vector>

#include "core/batch_state.hh"
#include "core/metrics.hh"
#include "core/serving_engine.hh"
#include "llm/kv_cache.hh"
#include "sim/rng.hh"

namespace papi::core::test {

class ServingModel
{
  public:
    ServingModel(const Platform &platform,
                 const llm::SpeculativeConfig &spec,
                 const llm::ModelConfig &model, const ServingOptions &options,
                 IterationCostModel cost = {}, AiEstimateFn fc_estimator = {},
                 StaticBatchMode static_mode = {})
        : _platform(platform), _spec(spec), _model(model), _opt(options),
          _cost(std::move(cost)), _static(static_mode),
          _kv(model, platform.config().numAttnDevices,
              options.kvCapacityOverrideBytes
                  ? options.kvCapacityOverrideBytes
                  : platform.config().attnDeviceConfig.capacityBytes()),
          _rng(options.seed),
          _fcDispatch(platform.dispatcher(Phase::Fc, options.alpha,
                                          std::move(fc_estimator))),
          _dynamic(_fcDispatch.rule() == DispatchRule::Threshold),
          _chunked(options.prefillChunkTokens > 0),
          _preempt(options.preemptOnKvPressure),
          _prefixOn(options.prefixCacheEnabled),
          _targetIters(platform.targets().size(), 0)
    {
        _kv.setPrefixCacheEnabled(_prefixOn);
    }

    void deliver(const llm::TimedRequest &r)
    {
        redeliver(r, r.arrivalSeconds);
    }
    void redeliver(const llm::TimedRequest &r, double ready)
    {
        anchor(ready);
        _pending.push_back({r, ready, 0});
    }
    void deliverPrefilled(const llm::TimedRequest &r, double ready,
                          std::uint64_t kv_tokens)
    {
        anchor(ready);
        _prefilled.push_back({r, ready, kv_tokens});
    }

    /** Empty the replica, harvesting the batch, the untaken handoffs,
     *  the parked requests in eviction order, the migrated-in queue
     *  and the queue, in that order. */
    std::vector<LostRequest> crash(double when)
    {
        std::vector<LostRequest> lost;
        const auto harvest = [&lost](const ActiveSnapshot &a) {
            llm::TimedRequest tr{a.request, a.arrivalSeconds, a.sessionId};
            lost.push_back(lostOf(tr, true, a.request.generated,
                                  a.request.inputLen - a.prefillRemaining));
        };
        for (const ActiveSnapshot &a : std::exchange(_batch, {})) {
            _kv.release(handle(a));
            harvest(a);
        }
        for (const HandoffRecord &h : std::exchange(_handoffs, {}))
            lost.push_back(
                lostOf(h.request, true, 0, h.request.request.inputLen));
        for (const Parked &p : std::exchange(_parked, {}))
            harvest(p.state);
        for (const Queued &q : std::exchange(_prefilled, {}))
            lost.push_back(lostOf(q.request, false, 0,
                                  static_cast<std::uint32_t>(q.kvTokens)));
        for (const Queued &q : std::exchange(_pending, {}))
            lost.push_back(lostOf(q.request, false, 0, 0));
        _now = std::max(_now, when);
        return lost;
    }
    void restartAt(double when) { _now = std::max(_now, when); }
    std::vector<HandoffRecord> takeHandoffs()
    {
        return std::exchange(_handoffs, {});
    }

    double now() const { return _now; }
    bool hasActive() const { return !_batch.empty(); }
    bool hasPending() const { return pendingCount() > 0; }
    bool canStep() const { return hasActive() || hasPending(); }
    bool hasHandoffs() const { return !_handoffs.empty(); }
    std::size_t pendingCount() const
    {
        return _pending.size() + _prefilled.size();
    }
    std::size_t preemptedCount() const { return _parked.size(); }
    std::uint32_t outstanding() const
    {
        return static_cast<std::uint32_t>(_batch.size() + pendingCount() +
                                          _parked.size());
    }
    const std::vector<RequestRecord> &records() const { return _records; }
    double busySeconds() const { return _busySeconds; }
    const RunBreakdown &breakdown() const { return _breakdown; }
    const std::vector<IterationTrace> &trace() const { return _trace; }
    const std::vector<std::uint64_t> &perTargetIterations() const
    {
        return _targetIters;
    }
    std::uint32_t probePrefixHitTokens(const llm::TimedRequest &tr) const
    {
        const llm::Request &r = tr.request;
        if (!_prefixOn || r.prefixKey == 0)
            return 0;
        return static_cast<std::uint32_t>(_kv.peekPrefixHit(
            r.prefixKey, std::min(r.prefixTokens, r.inputLen)));
    }
    double peekIterationSeconds() const { return plan().seconds; }

    void step()
    {
        if (!hasActive())
            return stepIdle();
        stepDecode();
        admit();
    }

    /** Idle to the next ready item and admit. Shedding can empty the
     *  eligible queue without forming a batch; then idle on. */
    void stepIdle()
    {
        do {
            _now = std::max(_now, nextReadySeconds());
            if (_opt.admission == AdmissionPolicy::BatchLevel) {
                // Wait for a full batch, the fill timeout or the last
                // arrival, whichever is first.
                const std::size_t cap = _opt.maxRlp;
                _now = std::max(
                    _now,
                    _pending.size() >= cap
                        ? _pending[cap - 1].request.arrivalSeconds
                        : std::min(_pending.front().request.arrivalSeconds +
                                       _opt.batchTimeoutSeconds,
                                   _pending.back().request.arrivalSeconds));
            }
        } while (admit() == 0 && !hasActive() && hasPending() &&
                 nextReadySeconds() > _now);
    }

    /** Resume parked, then migrated-in, then queued requests while the
     *  batch cap and the KV gate allow; charge prefills and swap-ins. */
    std::uint32_t admit()
    {
        if (_opt.admission == AdmissionPolicy::BatchLevel && !_batch.empty())
            return 0;
        std::vector<std::uint32_t> lens, hit_prior, hit_now;
        std::uint32_t resumed = 0, admitted = 0;
        double swap_seconds = 0.0;
        const std::uint64_t first_growth =
            std::max(_spec.length, _opt.prefillChunkTokens);

        // Parked requests come first, oldest arrival (then lowest id)
        // first: they already hold an admission time.
        while (_preempt && !_parked.empty() && _batch.size() < _opt.maxRlp) {
            const auto best = std::min_element(
                _parked.begin(), _parked.end(),
                [](const Parked &x, const Parked &y) {
                    return std::pair(x.state.arrivalSeconds,
                                     x.state.request.id) <
                           std::pair(y.state.arrivalSeconds,
                                     y.state.request.id);
                });
            ActiveSnapshot a = best->state;
            const std::uint32_t ctx = a.request.contextLen();
            const bool recompute =
                _opt.preemptPolicy == KvPreemptPolicy::Recompute;
            const std::uint32_t swapped =
                std::max<std::uint32_t>(a.kvTokens, 1);
            if (!fitsOnDemand((recompute ? ctx : swapped) + first_growth))
                break;
            a.admitSeq = _admitSeq++;
            a.stallSeconds += _now - best->since;
            _out.evictionStallSeconds += _now - best->since;
            if (recompute) {
                _out.recomputedPrefillTokens += a.kvTokens;
                a.prefillRemaining = _chunked ? ctx : 0;
                a.kvTokens = _chunked ? 0 : ctx;
                a.kvSlot = _kv.admit(a.request.id, a.kvTokens).slot;
                if (!_chunked)
                    lens.push_back(ctx);
            } else {
                // The swapped-out KV comes back over the fabric.
                a.kvSlot = _kv.admit(a.request.id, swapped).slot;
                swap_seconds += swapSeconds(a.kvTokens);
            }
            _batch.push_back(a);
            _parked.erase(best);
            ++resumed;
        }

        // Migrated-in requests: a KV reservation, no prefill charge.
        admitted += drain(_prefilled, [&](const Queued &q) {
            const std::uint64_t worst =
                q.kvTokens + q.request.request.outputLen;
            if (_preempt ? !fitsOnDemand(q.kvTokens + _spec.length)
                         : !_kv.canAdmit(worst))
                return false;
            ActiveSnapshot a = joining(q);
            a.kvTokens = static_cast<std::uint32_t>(q.kvTokens);
            a.kvSlot =
                _kv.admit(a.request.id, _preempt ? q.kvTokens : worst).slot;
            _batch.push_back(a);
            return true;
        });

        admitted += drain(_pending, [&](const Queued &q) {
            const llm::Request &req = q.request.request;
            // Reserve the worst case (a prefill pool never decodes),
            // or on demand the prompt and its first growth. The cache
            // is probed past the gate; a hit skips compute, not KV.
            const std::uint64_t worst =
                std::uint64_t{req.inputLen} +
                (_opt.role == ServingRole::Prefill ? 0 : req.outputLen);
            if (!_static.enabled &&
                (_preempt ? !fitsOnDemand(req.inputLen + first_growth)
                          : !_kv.canAdmit(worst)))
                return false;
            std::uint32_t hit = 0;
            if (_prefixOn && req.prefixKey != 0 &&
                _opt.role != ServingRole::Decode) {
                ++_out.prefixLookups;
                hit = static_cast<std::uint32_t>(_kv.prefixLookup(
                    req.prefixKey, std::min(req.prefixTokens, req.inputLen)));
                _out.prefixHits += hit > 0 ? 1 : 0;
                _out.prefixHitTokens += hit;
            }
            _out.prefixMissTokens += _prefixOn ? req.inputLen - hit : 0;
            ActiveSnapshot a = joining(q);
            if (!_static.enabled)
                a.kvSlot = _kv.admit(req.id, !_preempt ? worst
                                             : _chunked ? hit
                                                        : req.inputLen)
                               .slot;
            a.prefixHitTokens = hit;
            if (_chunked) {
                // Chunks start at the first uncached token.
                a.prefillRemaining = req.inputLen - hit;
                a.kvTokens = _preempt ? hit : 0;
            } else {
                a.kvTokens = req.inputLen;
                if (hit == 0) {
                    lens.push_back(req.inputLen);
                } else if (hit < req.inputLen) {
                    hit_prior.push_back(hit);
                    hit_now.push_back(req.inputLen - hit);
                }
            }
            _batch.push_back(a);
            return true;
        });

        if (admitted > 0 && _static.enabled)
            _staticInitialRlp = admitted;
        if (!lens.empty() && (!_static.enabled || _static.includePrefill))
            chargePrefill(_platform.prefillExec(_model, lens), lens);
        // A prefix hit prefills only the uncached suffix, over the
        // cached span as prior context.
        if (!hit_now.empty())
            chargePrefill(
                _platform.prefillChunkExec(_model, hit_prior, hit_now),
                hit_now);
        if (swap_seconds > 0.0)
            chargeSwap(swap_seconds);
        if (_opt.role == ServingRole::Prefill)
            handoffCompletedPrefills();
        _out.admissions += admitted;
        _out.resumes += resumed;
        return admitted + resumed;
    }

    /** One iteration: charge the plan, progress the chunks, advance
     *  the planned decoders, retire, restore the KV headroom. */
    void stepDecode()
    {
        const Plan p = plan();
        const TargetId target = p.decision.target;
        bool rescheduled = false;
        if (p.decodeRlp > 0 && _dynamic) {
            rescheduled = _scheduled && target != _prevTarget;
            _out.reschedules += rescheduled ? 1 : 0;
            if (_scheduled && isGpu(target) && !isGpu(_prevTarget))
                ++_out.reschedulesToGpu;
            _prevTarget = target;
            _scheduled = true;
        }

        // Overlap-hidden time (static mode) comes off the shorter
        // phase, its compute first, then its communication.
        double fc_part = p.fc.seconds - p.fc.commSeconds;
        double at_part = p.at.seconds - p.at.commSeconds;
        double comm_part = p.fc.commSeconds + p.at.commSeconds;
        double chunk_part = p.chunk.seconds;
        if (p.hidden > 0.0) {
            double &shorter = p.fc.seconds <= p.at.seconds ? fc_part : at_part;
            const double deduct = std::min(p.hidden, shorter);
            shorter -= deduct;
            comm_part -= p.hidden - deduct;
        }
        if (!_cost.trivial()) {
            fc_part /= _cost.computeScale;
            at_part /= _cost.computeScale;
            comm_part /= _cost.computeScale;
            chunk_part /= _cost.computeScale;
            if (_cost.extraSeconds)
                comm_part += p.seconds - (fc_part + at_part + comm_part +
                                          chunk_part + p.other);
        }
        _breakdown.fcSeconds += fc_part;
        _breakdown.attnSeconds += at_part;
        _breakdown.commSeconds += comm_part;
        _breakdown.prefillSeconds += chunk_part;
        _breakdown.otherSeconds += p.other;
        _rlpTimeIntegral += p.seconds * static_cast<double>(_batch.size());
        _busySeconds += p.seconds;
        _now += p.seconds;
        if (_static.enabled) {
            _out.energyJoules += p.fc.energyJoules + p.at.energyJoules;
            _out.energyJoules += p.other * kHostWatts;
        } else {
            double joules = p.chunk.energyJoules + p.other * kHostWatts +
                            (p.fc.energyJoules + p.at.energyJoules);
            if (!_cost.trivial() && _cost.extraJoules)
                joules += _cost.extraJoules(p.tokens + p.chunkTokens);
            _out.energyJoules += joules;
        }
        ++_out.iterations;
        if (p.decodeRlp > 0) {
            ++_targetIters[target];
            ++(isGpu(target) ? _out.fcOnGpuIterations
                             : _out.fcOnPimIterations);
        }
        // A monolithic admission wave can fill the pool right before
        // this iteration.
        if (!_chunked)
            _out.peakKvUtilization = std::max(_out.peakKvUtilization,
                                              _kv.utilization());

        for (std::size_t i = 0; i < _batch.size(); ++i) {
            ActiveSnapshot &a = _batch[i];
            a.prefillRemaining -= p.chunks[i];
            if (_preempt && p.chunks[i] > 0) {
                a.kvTokens += p.chunks[i];
                _kv.grow(handle(a), std::max<std::uint32_t>(a.kvTokens, 1));
            }
        }
        const std::uint32_t accepted =
            p.decodeRlp > 0 ? _spec.sampleAccepted(_rng) : 0;
        std::uint32_t eos = 0;
        std::vector<ActiveSnapshot> kept;
        for (std::size_t i = 0; i < _batch.size(); ++i) {
            ActiveSnapshot a = _batch[i];
            if (p.decoding[i]) {
                const std::uint32_t used = a.request.advance(accepted);
                _out.tokensGenerated += used;
                if (used > 0 && !a.firstTokenSeen) {
                    a.firstTokenSeconds = _now;
                    a.firstTokenSeen = true;
                }
                if (_preempt && _chunked && used > 0) { // before retirees
                    a.kvTokens += used;
                    _kv.grow(handle(a), a.kvTokens);
                }
                if (a.request.finished()) {
                    retire(a);
                    ++eos;
                    continue;
                }
            }
            kept.push_back(a);
        }
        _batch.swap(kept);
        // Monolithic on-demand runs grow the survivors after retiring.
        for (ActiveSnapshot &a : _batch) {
            if (_preempt && !_chunked && a.request.contextLen() > a.kvTokens) {
                a.kvTokens = a.request.contextLen();
                _kv.grow(handle(a), a.kvTokens);
            }
        }
        // Evict the youngest admissions until the next iteration's
        // worst-case growth fits.
        while (_preempt && _batch.size() > 1 &&
               worstGrowthBlocks() > _kv.availableBlocks())
            preemptYoungest();
        _out.peakKvUtilization =
            std::max(_out.peakKvUtilization, _kv.utilization());

        if (_static.recordTrace)
            _trace.push_back({_out.iterations, p.decodeRlp, _spec.length,
                              _dynamic ? p.decision.estimatedAi : 0.0,
                              target, rescheduled, eos, p.seconds});
        if (_opt.role == ServingRole::Prefill)
            handoffCompletedPrefills();
    }

    ServingResult finish()
    {
        _out.makespanSeconds = _now - _firstArrival;
        _out.meanRlp =
            _busySeconds > 0.0 ? _rlpTimeIntegral / _busySeconds : 0.0;
        _out.prefixEvictedBytes = _kv.prefixEvictedBytes();
        std::vector<double> lat;
        for (const RequestRecord &r : _records)
            lat.push_back(r.finishSeconds - r.arrivalSeconds);
        if (!lat.empty()) {
            _out.meanLatencySeconds =
                std::accumulate(lat.begin(), lat.end(), 0.0) /
                static_cast<double>(lat.size());
            std::sort(lat.begin(), lat.end());
            _out.p95LatencySeconds = percentileSorted(lat, 0.95);
        }
        return _out;
    }

  private:
    /** Host power charged against non-GEMV iteration time, watts. */
    static constexpr double kHostWatts = 50.0;

    /** A queued delivery; kvTokens is a migrated request's context. */
    struct Queued
    {
        llm::TimedRequest request;
        double ready = 0.0;
        std::uint64_t kvTokens = 0;
    };

    /** A request evicted under KV pressure, and since when. */
    struct Parked
    {
        ActiveSnapshot state;
        double since = 0.0;
    };

    /** The next iteration, as stepDecode charges it. */
    struct Plan
    {
        std::vector<std::uint32_t> chunks; ///< Per batch element.
        std::vector<bool> decoding;        ///< Per batch element.
        std::uint32_t decodeRlp = 0, chunkTokens = 0;
        std::uint32_t tokens = 0; ///< FC tokens.
        DispatchDecision decision;
        KernelExec fc, at, chunk;
        double other = 0.0, hidden = 0.0, seconds = 0.0;
    };

    Plan plan() const
    {
        Plan p;
        p.chunks = chunkBudgets();
        std::vector<std::uint32_t> ctx, done, chunk;
        for (std::size_t i = 0; i < _batch.size(); ++i) {
            const ActiveSnapshot &a = _batch[i];
            p.decoding.push_back(a.prefillRemaining == 0);
            if (a.prefillRemaining == 0) {
                ctx.push_back(a.request.contextLen());
                ++p.decodeRlp;
            } else if (p.chunks[i] > 0) {
                // A prefilling request's context is the whole prompt
                // being (re)built; its prior is the part already done.
                done.push_back(a.request.contextLen() - a.prefillRemaining);
                chunk.push_back(p.chunks[i]);
                p.chunkTokens += p.chunks[i];
            }
        }
        const std::uint32_t tlp = _spec.length;
        // Static batches without runtime-RLP tracking run padded.
        const bool padded = _static.enabled &&
                            !_platform.config().tracksRuntimeRlp &&
                            _staticInitialRlp > 0;
        p.tokens = (padded ? _staticInitialRlp : p.decodeRlp) * tlp;
        double kernel = 0.0;
        if (p.decodeRlp > 0) {
            p.decision =
                _fcDispatch.select(_model, p.decodeRlp, tlp, p.tokens);
            p.fc = _platform.fcExec(_model, p.tokens, p.decision.target);
            p.at = _platform.attnExec(_model, ctx, tlp);
            p.other = _platform.otherSeconds(_model);
            if (_static.enabled) {
                // The draft model's proposal pass, and the share of
                // the shorter phase that phase overlap hides.
                if (tlp > 1 && _spec.draftCostFraction > 0.0)
                    p.other += _spec.draftCostFraction *
                               (p.fc.seconds + p.at.seconds);
                p.hidden = _platform.config().phaseOverlapFraction *
                           std::min(p.fc.seconds, p.at.seconds);
            }
            kernel = p.fc.seconds + p.at.seconds - p.hidden;
        }
        if (!chunk.empty())
            p.chunk = _platform.prefillChunkExec(_model, done, chunk);
        kernel += p.chunk.seconds;
        p.seconds = _cost.trivial()
                        ? kernel + p.other
                        : scaled(kernel, p.other, p.tokens + p.chunkTokens);
        return p;
    }

    /** The shared chunk budget, drained in admission order. */
    std::vector<std::uint32_t> chunkBudgets() const
    {
        std::vector<std::uint32_t> chunks;
        std::uint32_t budget = _opt.prefillChunkTokens;
        for (const ActiveSnapshot &a : _batch) {
            chunks.push_back(std::min(a.prefillRemaining, budget));
            budget -= chunks.back();
        }
        return chunks;
    }

    /** KV blocks the next iteration could add: a chunk per prefilling
     *  request, up to TLP tokens (clipped at <eos>) per decoder. */
    std::uint64_t worstGrowthBlocks() const
    {
        const std::vector<std::uint32_t> chunks = chunkBudgets();
        std::uint64_t need = 0;
        for (std::size_t i = 0; i < _batch.size(); ++i) {
            const ActiveSnapshot &a = _batch[i];
            const std::uint32_t rem =
                a.request.outputLen - a.request.generated;
            const std::uint64_t blocks = _kv.blocksForTokens(
                a.prefillRemaining > 0
                    ? std::max<std::uint64_t>(a.kvTokens + chunks[i], 1)
                    : a.request.contextLen() + std::min(_spec.length, rem));
            const std::uint64_t held = _kv.requestBlocks(a.request.id);
            need += blocks > held ? blocks - held : 0;
        }
        return need;
    }

    /** On-demand KV gate: @p tokens fit on top of the batch's next
     *  growth, so admission never forces an eviction. */
    bool fitsOnDemand(std::uint64_t tokens) const
    {
        return _kv.availableBlocks() >=
               _kv.blocksForTokens(tokens) + worstGrowthBlocks();
    }

    /** The batch is in admission order: the youngest is last. */
    void preemptYoungest()
    {
        ActiveSnapshot a = _batch.back();
        _batch.pop_back();
        _kv.release(handle(a));
        // The swap-out stalls the survivors; the victim's own stall
        // starts after it.
        if (_opt.preemptPolicy == KvPreemptPolicy::SwapRestore)
            chargeSwap(swapSeconds(a.kvTokens));
        ++a.preemptions;
        _parked.push_back({a, _now});
        _out.evictionOrder.push_back(a.request.id);
        ++_out.preemptions;
    }

    /** Record a finished request, then release its KV and publish
     *  its prefix (static batches hold no KV). */
    void retire(const ActiveSnapshot &a)
    {
        _records.push_back(
            {.id = a.request.id,
             .arrivalSeconds = a.arrivalSeconds,
             .admissionSeconds = a.admissionSeconds,
             .firstTokenSeconds =
                 a.firstTokenSeen ? a.firstTokenSeconds : _now,
             .finishSeconds = _now,
             .outputTokens = a.request.outputLen,
             .preemptions = a.preemptions,
             .stallSeconds = a.stallSeconds,
             .prefixHitTokens = a.prefixHitTokens,
             .prefixMissTokens = a.request.inputLen - a.prefixHitTokens});
        if (!_static.enabled) {
            _kv.release(handle(a));
            publish(a);
        }
    }

    /** Prefill role: finished prompts leave for the decode pool, minus
     *  the whole cached blocks it holds. The record keeps the whole
     *  request, its arrival and its session. */
    void handoffCompletedPrefills()
    {
        std::vector<ActiveSnapshot> kept;
        for (const ActiveSnapshot &a : _batch) {
            if (a.prefillRemaining > 0) {
                kept.push_back(a);
                continue;
            }
            HandoffRecord h{{a.request, a.arrivalSeconds, a.sessionId},
                            _now, a.request.contextLen()};
            const llm::KvExport kv = _kv.exportRequest(handle(a));
            h.kvBlocks = kv.blocks;
            h.kvBytes = kv.bytes;
            if (_prefixOn && a.prefixHitTokens > 0 && kv.blocks > 0) {
                const std::uint64_t hit_blocks = std::min<std::uint64_t>(
                    a.prefixHitTokens / _kv.blockTokens(), kv.blocks);
                h.kvBlocks -= hit_blocks;
                h.kvBytes -= hit_blocks * (kv.bytes / kv.blocks);
            }
            publish(a);
            ++_out.handoffs;
            _out.prefillHandoffTokens += a.request.inputLen;
            _handoffs.push_back(h);
        }
        _batch.swap(kept);
    }

    /** Cache a leaving request's reusable span (nothing probes a
     *  decode pool's inserts). */
    void publish(const ActiveSnapshot &a)
    {
        const llm::Request &r = a.request;
        if (!_prefixOn || r.insertKey == 0 || _opt.role == ServingRole::Decode)
            return;
        const std::uint32_t ctx = r.contextLen();
        _kv.prefixInsert(r.insertKey, r.insertTokens > 0
                                          ? std::min(r.insertTokens, ctx)
                                          : ctx);
    }

    /** Admit @p queue's ready requests in order through @p admit_one
     *  until it refuses one or the batch is full. A request whose
     *  TTFT deadline has passed is shed instead. */
    template <class AdmitOne>
    std::uint32_t drain(std::deque<Queued> &queue, AdmitOne &&admit_one)
    {
        std::uint32_t n = 0;
        while (!queue.empty() && queue.front().ready <= _now &&
               _batch.size() < _opt.maxRlp) {
            if (_opt.deadlineSeconds > 0.0 &&
                queue.front().request.arrivalSeconds + _opt.deadlineSeconds <=
                    _now)
                ++_out.shedRequests;
            else if (admit_one(queue.front()))
                ++n;
            else
                break;
            queue.pop_front();
        }
        return n;
    }
    ActiveSnapshot joining(const Queued &q)
    {
        return {.request = q.request.request,
                .arrivalSeconds = q.request.arrivalSeconds,
                .admissionSeconds = _now,
                .admitSeq = _admitSeq++,
                .sessionId = q.request.sessionId};
    }
    void chargePrefill(const KernelExec &pre,
                       const std::vector<std::uint32_t> &lens)
    {
        double seconds = pre.seconds;
        double joules = pre.energyJoules;
        if (!_cost.trivial()) {
            const auto tokens = static_cast<std::uint32_t>(
                std::accumulate(lens.begin(), lens.end(), std::uint64_t{0}));
            seconds = scaled(pre.seconds, 0.0, tokens);
            if (_cost.extraJoules)
                joules += _cost.extraJoules(tokens);
        }
        charge(seconds, _breakdown.prefillSeconds);
        _out.energyJoules += joules;
    }
    /** A lump-sum KV swap stalls every request in the batch. */
    void chargeSwap(double seconds)
    {
        charge(seconds, _breakdown.commSeconds);
        for (ActiveSnapshot &a : _batch)
            a.stallSeconds += seconds;
        _out.swapInducedStallSeconds +=
            seconds * static_cast<double>(_batch.size());
    }
    /** Busy time, also booked to one breakdown component. */
    void charge(double seconds, double &component)
    {
        _now += seconds;
        _busySeconds += seconds;
        component += seconds;
    }
    /** A charged duration under the tensor-parallel cost model. */
    double scaled(double kernel, double other, std::uint32_t tokens) const
    {
        double seconds = kernel / _cost.computeScale + other;
        if (_cost.extraSeconds)
            seconds += _cost.extraSeconds(tokens);
        return seconds;
    }
    double swapSeconds(std::uint32_t kv_tokens) const
    {
        return static_cast<double>(kv_tokens) *
               static_cast<double>(_model.kvBytesPerToken()) /
               (_opt.kvSwapGBps * 1e9);
    }
    bool isGpu(TargetId t) const
    {
        return _platform.targets().at(t).kind == TargetKind::Gpu;
    }
    double nextReadySeconds() const
    {
        if (_prefilled.empty() || _pending.empty())
            return (_pending.empty() ? _prefilled : _pending).front().ready;
        return std::min(_pending.front().ready, _prefilled.front().ready);
    }
    void anchor(double when)
    {
        if (!std::exchange(_anchored, true))
            _firstArrival = _now = when;
    }
    static llm::KvHandle handle(const ActiveSnapshot &a)
    {
        return {a.request.id, a.kvSlot};
    }
    static LostRequest lostOf(llm::TimedRequest tr, bool admitted,
                              std::uint32_t generated_lost,
                              std::uint32_t prefill_lost)
    {
        tr.request.generated = 0;
        return {tr, admitted, generated_lost, prefill_lost};
    }

    const Platform &_platform;
    llm::SpeculativeConfig _spec;
    llm::ModelConfig _model;
    ServingOptions _opt;
    IterationCostModel _cost;
    StaticBatchMode _static;
    llm::KvCacheManager _kv;
    sim::Rng _rng;
    PhaseDispatcher _fcDispatch;
    bool _dynamic, _chunked, _preempt, _prefixOn;

    std::deque<Queued> _pending;
    std::deque<Queued> _prefilled;
    std::vector<ActiveSnapshot> _batch; ///< Admission order.
    std::vector<Parked> _parked;        ///< Eviction order.
    std::vector<HandoffRecord> _handoffs;
    std::vector<RequestRecord> _records;
    std::uint64_t _admitSeq = 0;
    std::uint32_t _staticInitialRlp = 0;
    bool _scheduled = false; ///< A dynamic dispatch has run.
    TargetId _prevTarget = kInvalidTargetId;

    bool _anchored = false;
    double _firstArrival = 0.0;
    double _now = 0.0;
    double _rlpTimeIntegral = 0.0;
    double _busySeconds = 0.0;
    RunBreakdown _breakdown;
    std::vector<IterationTrace> _trace;
    std::vector<std::uint64_t> _targetIters;
    ServingResult _out;
};

} // namespace papi::core::test

#endif // PAPI_TESTS_SERVING_MODEL_HH
