/**
 * @file
 * Name-parser regression tests: every *FromName/ByName helper
 * round-trips its printable names, and an unknown name dies with a
 * fatal message that lists every valid spelling (so a config typo is
 * a one-glance fix, not a source dive).
 */

#include <gtest/gtest.h>

#include <string>

#include "cluster/router.hh"
#include "core/dispatch_policy.hh"
#include "sim/logging.hh"

namespace {

using namespace papi::core;
using papi::cluster::RouterPolicy;
using papi::cluster::routerPolicyByName;
using papi::cluster::routerPolicyName;
using papi::sim::FatalError;

/** Run @p parse on a bogus name and return the fatal message. */
template <typename Fn>
std::string
fatalMessage(Fn &&parse)
{
    try {
        parse("no-such-name");
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "parser accepted a bogus name";
    return {};
}

TEST(NameParsers, DispatchRuleRoundTripAndFatalListsNames)
{
    for (DispatchRule r : {DispatchRule::Static,
                           DispatchRule::Threshold,
                           DispatchRule::Oracle})
        EXPECT_EQ(dispatchRuleFromName(dispatchRuleName(r)), r);

    const std::string msg = fatalMessage(
        [](const std::string &s) { dispatchRuleFromName(s); });
    for (const char *name : {"static", "threshold", "oracle"})
        EXPECT_NE(msg.find(name), std::string::npos) << name;
}

TEST(NameParsers, RouterPolicyRoundTripAndFatalListsNames)
{
    for (RouterPolicy p :
         {RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding,
          RouterPolicy::SessionAffinity,
          RouterPolicy::CacheHitAware})
        EXPECT_EQ(routerPolicyByName(routerPolicyName(p)), p);

    const std::string msg = fatalMessage(
        [](const std::string &s) { routerPolicyByName(s); });
    for (const char *name :
         {"round-robin", "least-outstanding", "session-affinity",
          "cache-hit-aware"})
        EXPECT_NE(msg.find(name), std::string::npos) << name;
}

TEST(NameParsers, DispatchPolicyStringForm)
{
    // The composed "<rule>:<targets>" form round-trips...
    const DispatchPolicy p =
        dispatchPolicyFromName("threshold:fc-pim->gpu");
    EXPECT_EQ(p.rule, DispatchRule::Threshold);
    EXPECT_EQ(dispatchPolicyName(p), "threshold:fc-pim->gpu");
    // ...and malformed shapes are fatal, not silently mis-parsed.
    EXPECT_THROW(dispatchPolicyFromName("threshold"), FatalError);
    EXPECT_THROW(dispatchPolicyFromName("threshold:gpu"),
                 FatalError);
    EXPECT_THROW(dispatchPolicyFromName("static:gpu,fc-pim"),
                 FatalError);
    EXPECT_THROW(dispatchPolicyFromName("oracle:gpu,,fc-pim"),
                 FatalError);
    EXPECT_THROW(dispatchPolicyFromName("no-such-rule:gpu"),
                 FatalError);
}

} // namespace
