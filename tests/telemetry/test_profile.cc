/**
 * @file
 * Profile-store tests: the merge algebra (commutative, associative,
 * identity) proven at the byte level via write(), and the
 * parse → merge → rewrite round trip that cross-run accumulation
 * (`--profile-in` / `--profile-out`) depends on.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/profile.hh"

using namespace txrace;
using telemetry::AppProfile;
using telemetry::Profile;
using telemetry::SiteProfile;

namespace {

std::string
bytes(const Profile &p)
{
    std::ostringstream ss;
    p.write(ss);
    return ss.str();
}

Profile
sample(uint64_t salt)
{
    Profile p;
    AppProfile &a = p.apps["vips"];
    a.runs = 1;
    a.windowReplays = 1000 + salt;
    a.txBegins = 500 + salt;
    a.txCommitted = 480 + salt;
    a.slowRegions = 20;
    a.monitorGatedChecks = salt;
    SiteProfile &s1 = a.sites[12];
    s1.conflictAborts = 3 + salt;
    s1.slowChecks = 7;
    s1.slowCost = 7000;
    s1.monitorShiftMax = salt % 5;
    SiteProfile &s2 = a.sites[40 + uint32_t(salt % 3)];
    s2.capacityAborts = 1;
    s2.otherAborts = salt;
    AppProfile &b = p.apps["x264"];
    b.runs = 1;
    b.txBegins = 9 + salt;
    return p;
}

} // namespace

TEST(Profile, MergeIsCommutativeByteExact)
{
    Profile ab = sample(1);
    ab.merge(sample(2));
    Profile ba = sample(2);
    ba.merge(sample(1));
    EXPECT_EQ(bytes(ab), bytes(ba));
}

TEST(Profile, MergeIsAssociativeByteExact)
{
    Profile left = sample(1);
    left.merge(sample(2));
    left.merge(sample(3));

    Profile bc = sample(2);
    bc.merge(sample(3));
    Profile right = sample(1);
    right.merge(bc);

    EXPECT_EQ(bytes(left), bytes(right));
}

TEST(Profile, EmptyIsMergeIdentity)
{
    Profile p = sample(4);
    std::string before = bytes(p);
    p.merge(Profile{});
    EXPECT_EQ(bytes(p), before);

    Profile e;
    e.merge(sample(4));
    EXPECT_EQ(bytes(e), before);
}

TEST(Profile, SumsAndMaxMergeSemantics)
{
    Profile a = sample(1);
    a.apps["vips"].sites[12].monitorShiftMax = 4;
    Profile b = sample(1);
    b.apps["vips"].sites[12].monitorShiftMax = 2;
    a.merge(b);
    const AppProfile &m = a.apps.at("vips");
    EXPECT_EQ(m.runs, 2u);
    EXPECT_EQ(m.windowReplays, 2002u);
    // Counters sum; the sampling shift keeps the deepest mark.
    EXPECT_EQ(m.sites.at(12).conflictAborts, 8u);
    EXPECT_EQ(m.sites.at(12).monitorShiftMax, 4u);
}

TEST(Profile, ParseRoundTripIsByteExact)
{
    Profile p = sample(7);
    std::string text = bytes(p);
    Profile back;
    std::string error;
    ASSERT_TRUE(Profile::parse(text, back, error)) << error;
    EXPECT_EQ(bytes(back), text);
}

TEST(Profile, ParseMergeRewriteMatchesDirectMerge)
{
    // The CLI path: run A writes, run B reads A's file via
    // --profile-in, merges its own counters, writes again. The file
    // must equal merging both runs in memory.
    Profile a = sample(1), b = sample(2);
    Profile direct = sample(1);
    direct.merge(sample(2));

    Profile reread;
    std::string error;
    ASSERT_TRUE(Profile::parse(bytes(a), reread, error)) << error;
    reread.merge(b);
    EXPECT_EQ(bytes(reread), bytes(direct));
}

TEST(Profile, ParseRejectsWrongSchema)
{
    Profile out;
    std::string error;
    EXPECT_FALSE(Profile::parse(
        "{\"schema\": \"txrace-metrics-v1\", \"apps\": {}}", out,
        error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(Profile::parse("not json at all", out, error));
    EXPECT_FALSE(Profile::parse("{\"apps\": {}}", out, error));
}

TEST(Profile, ParseSkipsRetiredKeys)
{
    // Files written before a counter was retired still load; the
    // retired key is dropped on rewrite.
    Profile out;
    std::string error;
    ASSERT_TRUE(Profile::parse(
        "{\"schema\": \"txrace-profile-v1\", \"apps\": {\"vips\": "
        "{\"runs\": 2, \"window_fallbacks\": 7, \"tx_begins\": 5}}}",
        out, error))
        << error;
    EXPECT_EQ(out.apps.at("vips").runs, 2u);
    EXPECT_EQ(out.apps.at("vips").txBegins, 5u);
    EXPECT_EQ(bytes(out).find("window_fallbacks"), std::string::npos);
}

TEST(Profile, LargeCountersSurviveRoundTrip)
{
    // Counters above 2^53 must not be squeezed through a double.
    Profile p;
    AppProfile &a = p.apps["big"];
    a.runs = 1;
    a.windowReplays = 0xFFFFFFFFFFFFFFFFull;
    a.sites[1].slowCost = (1ull << 60) + 12345;
    Profile back;
    std::string error;
    ASSERT_TRUE(Profile::parse(bytes(p), back, error)) << error;
    EXPECT_EQ(back.apps.at("big").windowReplays, 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(back.apps.at("big").sites.at(1).slowCost,
              (1ull << 60) + 12345);
}
