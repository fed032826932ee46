/**
 * @file
 * The typed metrics registry: counters, gauges, and log-bucket
 * histograms registered once by name, updated through dense interned
 * ids.
 *
 * Registration happens at machine/policy construction (cold);
 * updates happen in the scheduler step loop (hot) and cost one vector
 * index. Ids are assigned in registration order, so identical
 * (machine, policy) setups produce identical id assignments across
 * runs — the determinism the byte-identical-stats tests rely on.
 *
 * The registry is the only place counters are written. The driver
 * renders one string-keyed StatSet snapshot from it per run
 * (exportTo) for every consumer of RunResult::stats — the bench
 * harnesses, `txrace_run --stats`, `--metrics-json`, the determinism
 * tests.
 */

#ifndef TXRACE_TELEMETRY_REGISTRY_HH
#define TXRACE_TELEMETRY_REGISTRY_HH

#include <map>
#include <string>
#include <vector>

#include "support/stats.hh"
#include "telemetry/metric.hh"

namespace txrace::telemetry {

/** Name + kind + storage slot of one registered metric. */
struct MetricInfo
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    /** Index into the value or histogram store (by kind). */
    uint32_t slot = 0;
};

class MetricRegistry
{
  public:
    /**
     * Intern @p name as a counter and return its id. Re-registering
     * the same name returns the same id; registering it under a
     * different kind is a caller bug and panics.
     */
    MetricId counter(const std::string &name);

    /** Intern @p name as a gauge (set() semantics on export). */
    MetricId gauge(const std::string &name);

    /** Intern @p name as a log-bucket histogram. */
    MetricId histogram(const std::string &name);

    /** Add @p delta to counter/gauge @p id. Hot path: one index. */
    void
    add(MetricId id, uint64_t delta = 1)
    {
        values_[metrics_[id].slot] += delta;
    }

    /** Set counter/gauge @p id to an absolute value. */
    void
    set(MetricId id, uint64_t value)
    {
        values_[metrics_[id].slot] = value;
    }

    /**
     * Cold-path add by name: intern @p name as a counter and add
     * @p delta; a zero delta registers nothing. For end-of-run
     * transfers of counters kept outside the registry, and for events
     * too rare to be worth a pre-interned id.
     */
    void addNamed(const std::string &name, uint64_t delta = 1);

    /** Record one observation into histogram @p id. */
    void
    observe(MetricId id, uint64_t value)
    {
        hists_[metrics_[id].slot].observe(value);
    }

    /**
     * Merge a histogram accumulated outside the registry into
     * histogram @p id (bulk transfer of pre-aggregated subsystem
     * telemetry, e.g. the HTM line directory's probe lengths, at
     * end of run).
     */
    void
    mergeHistogram(MetricId id, const LogHistogram &other)
    {
        hists_[metrics_[id].slot].merge(other);
    }

    /** Current value of counter/gauge @p id. */
    uint64_t
    value(MetricId id) const
    {
        return values_[metrics_[id].slot];
    }

    /** Histogram @p id (must have been registered as one). */
    const LogHistogram &
    hist(MetricId id) const
    {
        return hists_[metrics_[id].slot];
    }

    /** Id of @p name, or kNoMetric if never registered. */
    MetricId find(const std::string &name) const;

    /** Value of counter/gauge @p name; 0 if unregistered. */
    uint64_t valueByName(const std::string &name) const;

    /** All registered metrics in id order. */
    const std::vector<MetricInfo> &metrics() const { return metrics_; }

    /** Number of registered metrics. */
    size_t size() const { return metrics_.size(); }

    /**
     * Write every non-zero counter and gauge into @p out under its
     * registered name (set semantics: safe to call more than once).
     * Zero-valued metrics are skipped so dumps keep the "counters
     * spring into existence at first touch" shape.
     */
    void exportTo(StatSet &out) const;

  private:
    MetricId intern(const std::string &name, MetricKind kind);

    std::vector<MetricInfo> metrics_;
    /** Registration-time name -> id index (never touched when hot). */
    std::map<std::string, MetricId> index_;
    std::vector<uint64_t> values_;
    std::vector<LogHistogram> hists_;
};

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_REGISTRY_HH
