/**
 * @file
 * Unit tests of the typed metrics registry and the log-bucket
 * histogram: bucket boundaries, merging, interned-id determinism, and
 * the StatSet snapshot export.
 */

#include <gtest/gtest.h>

#include "support/stats.hh"
#include "telemetry/registry.hh"

using namespace txrace;
using telemetry::LogHistogram;
using telemetry::MetricId;
using telemetry::MetricKind;
using telemetry::MetricRegistry;

TEST(LogHistogram, BucketBoundaries)
{
    // Bucket 0 holds exactly {0}; bucket i >= 1 holds [2^(i-1), 2^i).
    EXPECT_EQ(LogHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LogHistogram::bucketOf(1), 1u);
    EXPECT_EQ(LogHistogram::bucketOf(2), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(4), 3u);
    EXPECT_EQ(LogHistogram::bucketOf(1023), 10u);
    EXPECT_EQ(LogHistogram::bucketOf(1024), 11u);
    EXPECT_EQ(LogHistogram::bucketOf(~0ull), 64u);

    for (size_t i = 0; i < LogHistogram::kNumBuckets; ++i) {
        // Every bucket's lower bound maps back into the bucket.
        EXPECT_EQ(LogHistogram::bucketOf(LogHistogram::bucketLo(i)), i);
    }
    // Upper bounds are exclusive: hi(i) lands in bucket i+1.
    EXPECT_EQ(LogHistogram::bucketOf(LogHistogram::bucketHi(3)), 4u);
}

TEST(LogHistogram, ObserveAndStats)
{
    LogHistogram h;
    h.observe(0);
    h.observe(1);
    h.observe(5);
    h.observe(5);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 11u);
    EXPECT_EQ(h.max(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 11.0 / 4.0);
    EXPECT_EQ(h.bucketCount(0), 1u);  // the 0
    EXPECT_EQ(h.bucketCount(1), 1u);  // the 1
    EXPECT_EQ(h.bucketCount(3), 2u);  // the 5s: [4, 8)
}

TEST(LogHistogram, MergeIsElementwise)
{
    LogHistogram a, b;
    a.observe(3);
    a.observe(100);
    b.observe(3);
    b.observe(7);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 113u);
    EXPECT_EQ(a.max(), 100u);
    EXPECT_EQ(a.bucketCount(LogHistogram::bucketOf(3)), 2u);
    EXPECT_EQ(a.bucketCount(LogHistogram::bucketOf(7)), 1u);
    EXPECT_EQ(a.bucketCount(LogHistogram::bucketOf(100)), 1u);
}

TEST(MetricRegistry, InternedIdsAreDenseAndDeterministic)
{
    // Two registries fed the same registration sequence hand out the
    // same ids — the property run-to-run determinism rests on.
    MetricRegistry a, b;
    for (MetricRegistry *r : {&a, &b}) {
        EXPECT_EQ(r->counter("x.first"), MetricId{0});
        EXPECT_EQ(r->gauge("x.second"), MetricId{1});
        EXPECT_EQ(r->histogram("x.third"), MetricId{2});
        // Re-registration returns the existing id.
        EXPECT_EQ(r->counter("x.first"), MetricId{0});
    }
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.metrics()[1].name, "x.second");
    EXPECT_EQ(a.metrics()[1].kind, MetricKind::Gauge);
}

TEST(MetricRegistry, HotPathUpdatesAndLookup)
{
    MetricRegistry reg;
    MetricId c = reg.counter("c");
    MetricId g = reg.gauge("g");
    MetricId h = reg.histogram("h");
    reg.add(c);
    reg.add(c, 4);
    reg.set(g, 17);
    reg.observe(h, 9);
    EXPECT_EQ(reg.value(c), 5u);
    EXPECT_EQ(reg.value(g), 17u);
    EXPECT_EQ(reg.hist(h).count(), 1u);
    EXPECT_EQ(reg.valueByName("c"), 5u);
    EXPECT_EQ(reg.valueByName("nope"), 0u);
    EXPECT_EQ(reg.find("g"), g);
    EXPECT_EQ(reg.find("nope"), telemetry::kNoMetric);
}

TEST(MetricRegistry, AddNamedAccumulatesAndSkipsZero)
{
    MetricRegistry reg;
    MetricId pre = reg.counter("pre");
    reg.addNamed("pre", 2);
    reg.addNamed("late", 3);
    reg.addNamed("late");
    reg.addNamed("zero", 0);
    EXPECT_EQ(reg.value(pre), 2u);
    EXPECT_EQ(reg.valueByName("late"), 4u);
    // A zero delta registers nothing, so it cannot shift later ids.
    EXPECT_EQ(reg.find("zero"), telemetry::kNoMetric);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, ExportSkipsZerosAndHistograms)
{
    MetricRegistry reg;
    MetricId touched = reg.counter("touched");
    reg.counter("never.touched");
    reg.histogram("a.histogram");
    MetricId gz = reg.gauge("gauge.set");
    reg.add(touched, 3);
    reg.set(gz, 8);

    StatSet out;
    reg.exportTo(out);
    EXPECT_EQ(out.get("touched"), 3u);
    EXPECT_EQ(out.get("gauge.set"), 8u);
    // Zero-valued and histogram metrics never appear: the dump keeps
    // the legacy "counters spring into existence at first touch" shape.
    EXPECT_EQ(out.all().count("never.touched"), 0u);
    EXPECT_EQ(out.all().count("a.histogram"), 0u);

    // set() semantics: exporting twice does not double.
    reg.exportTo(out);
    EXPECT_EQ(out.get("touched"), 3u);
}
