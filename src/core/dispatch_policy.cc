#include "core/dispatch_policy.hh"

#include <limits>

#include "core/platform.hh"
#include "llm/kernel_spec.hh"
#include "sim/logging.hh"

namespace papi::core {

namespace {

/**
 * The oracle rule: the candidate whose @p seconds cost is smallest;
 * ties go to the earlier candidate.
 */
template <typename CostFn>
DispatchDecision
fastest(const std::vector<TargetId> &ids, CostFn &&seconds)
{
    DispatchDecision d{ids.front(), 0.0};
    double best = std::numeric_limits<double>::infinity();
    for (TargetId id : ids) {
        double s = seconds(id);
        if (s < best) {
            best = s;
            d.target = id;
        }
    }
    return d;
}

} // namespace

const char *
dispatchRuleName(DispatchRule rule)
{
    switch (rule) {
      case DispatchRule::Static: return "static";
      case DispatchRule::Threshold: return "threshold";
      case DispatchRule::Oracle: return "oracle";
    }
    return "unknown";
}

DispatchRule
dispatchRuleFromName(const std::string &name)
{
    if (name == "static")
        return DispatchRule::Static;
    if (name == "threshold")
        return DispatchRule::Threshold;
    if (name == "oracle")
        return DispatchRule::Oracle;
    sim::fatal("dispatchRuleFromName: unknown dispatch rule '", name,
               "' (static | threshold | oracle)");
}

DispatchPolicy
staticDispatch(std::string target)
{
    DispatchPolicy p;
    p.rule = DispatchRule::Static;
    p.targets.push_back(std::move(target));
    return p;
}

DispatchPolicy
thresholdDispatch(std::string below, std::string above)
{
    DispatchPolicy p;
    p.rule = DispatchRule::Threshold;
    p.targets.push_back(std::move(below));
    p.targets.push_back(std::move(above));
    return p;
}

DispatchPolicy
oracleDispatch(std::vector<std::string> targets)
{
    DispatchPolicy p;
    p.rule = DispatchRule::Oracle;
    p.targets = std::move(targets);
    return p;
}

std::string
dispatchPolicyName(const DispatchPolicy &policy)
{
    std::string out = dispatchRuleName(policy.rule);
    out += ':';
    switch (policy.rule) {
      case DispatchRule::Static:
        out += policy.targets.empty() ? "" : policy.targets.front();
        break;
      case DispatchRule::Threshold:
        if (policy.targets.size() == 2)
            out += policy.targets[0] + "->" + policy.targets[1];
        break;
      case DispatchRule::Oracle:
        for (std::size_t i = 0; i < policy.targets.size(); ++i) {
            if (i)
                out += ',';
            out += policy.targets[i];
        }
        break;
    }
    return out;
}

DispatchPolicy
dispatchPolicyFromName(const std::string &name)
{
    auto colon = name.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= name.size())
        sim::fatal("dispatchPolicyFromName: expected "
                   "'<rule>:<targets>', got '", name, "'");

    DispatchPolicy p;
    p.rule = dispatchRuleFromName(name.substr(0, colon));
    const std::string rest = name.substr(colon + 1);

    switch (p.rule) {
      case DispatchRule::Static:
        if (rest.find(',') != std::string::npos ||
            rest.find("->") != std::string::npos)
            sim::fatal("dispatchPolicyFromName: static policies pin "
                       "exactly one target, got '", name, "'");
        p.targets.push_back(rest);
        break;
      case DispatchRule::Threshold: {
        auto arrow = rest.find("->");
        if (arrow == std::string::npos || arrow == 0 ||
            arrow + 2 >= rest.size())
            sim::fatal("dispatchPolicyFromName: threshold policies "
                       "are '<below>-><above>', got '", name, "'");
        p.targets.push_back(rest.substr(0, arrow));
        p.targets.push_back(rest.substr(arrow + 2));
        break;
      }
      case DispatchRule::Oracle: {
        std::size_t start = 0;
        while (start <= rest.size()) {
            auto comma = rest.find(',', start);
            std::string t =
                rest.substr(start, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - start);
            if (t.empty())
                sim::fatal("dispatchPolicyFromName: empty target in "
                           "'", name, "'");
            p.targets.push_back(std::move(t));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        break;
      }
    }
    return p;
}

// ----------------------------------------------------- PhaseDispatcher

PhaseDispatcher::PhaseDispatcher(const Platform &platform, Phase phase,
                                 double alpha, AiEstimateFn estimator)
    : _platform(&platform), _phase(phase), _alpha(alpha),
      _estimator(std::move(estimator))
{
    const DispatchPolicy &policy = platform.dispatchPolicy(phase);
    _rule = policy.rule;
    _ids.reserve(policy.targets.size());
    for (const std::string &name : policy.targets)
        _ids.push_back(platform.targets().require(name));
    // Platform validated shape and phase support at construction;
    // re-check the invariants that select() relies on.
    if (_ids.empty())
        sim::fatal("PhaseDispatcher: ", phaseName(phase),
                   " policy has no targets");
    if (_rule == DispatchRule::Threshold && _ids.size() != 2)
        sim::fatal("PhaseDispatcher: threshold rule needs exactly "
                   "two targets");
}

TargetPair
PhaseDispatcher::pair() const
{
    if (_rule != DispatchRule::Threshold)
        sim::fatal("PhaseDispatcher: no threshold pair for a ",
                   dispatchRuleName(_rule), " policy");
    return TargetPair{_ids[0], _ids[1]};
}

DispatchDecision
PhaseDispatcher::thresholdDecision(std::uint32_t rlp,
                                   std::uint32_t tlp) const
{
    DispatchDecision d;
    d.estimatedAi = _estimator
                        ? _estimator(rlp, tlp)
                        : llm::fcArithmeticIntensityEstimate(rlp, tlp);
    d.target = d.estimatedAi > _alpha ? _ids[1] : _ids[0];
    return d;
}

DispatchDecision
PhaseDispatcher::select(const llm::ModelConfig &model,
                        std::uint32_t rlp, std::uint32_t tlp,
                        std::uint32_t tokens) const
{
    switch (_rule) {
      case DispatchRule::Static:
        return DispatchDecision{_ids.front(), 0.0};
      case DispatchRule::Threshold:
        return thresholdDecision(rlp, tlp);
      case DispatchRule::Oracle:
        return fastest(_ids, [&](TargetId id) {
            return _platform->fcExec(model, tokens, id).seconds;
        });
    }
    sim::panic("PhaseDispatcher: bad rule");
}

DispatchDecision
PhaseDispatcher::selectAttention(const llm::ModelConfig &model,
                                 std::uint64_t ctx_sum,
                                 std::uint32_t requests,
                                 std::uint32_t tlp) const
{
    if (_rule == DispatchRule::Static)
        return DispatchDecision{_ids.front(), 0.0};
    return fastest(_ids, [&](TargetId id) {
        return _platform->attnExec(model, ctx_sum, requests, tlp, id)
            .seconds;
    });
}

DispatchDecision
PhaseDispatcher::selectPrefill(
    const llm::ModelConfig &model,
    const std::vector<std::uint32_t> &input_lens) const
{
    if (_rule == DispatchRule::Static)
        return DispatchDecision{_ids.front(), 0.0};
    return fastest(_ids, [&](TargetId id) {
        return _platform->prefillExec(model, input_lens, id).seconds;
    });
}

} // namespace papi::core
