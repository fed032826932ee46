#include "telemetry/registry.hh"

#include "support/log.hh"

namespace txrace::telemetry {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

MetricId
MetricRegistry::intern(const std::string &name, MetricKind kind)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        const MetricInfo &info = metrics_[it->second];
        if (info.kind != kind)
            panic("MetricRegistry: '%s' re-registered as %s but is a %s",
                  name.c_str(), metricKindName(kind),
                  metricKindName(info.kind));
        return it->second;
    }
    MetricId id = static_cast<MetricId>(metrics_.size());
    uint32_t slot;
    if (kind == MetricKind::Histogram) {
        slot = static_cast<uint32_t>(hists_.size());
        hists_.emplace_back();
    } else {
        slot = static_cast<uint32_t>(values_.size());
        values_.push_back(0);
    }
    metrics_.push_back({name, kind, slot});
    index_.emplace(name, id);
    return id;
}

MetricId
MetricRegistry::counter(const std::string &name)
{
    return intern(name, MetricKind::Counter);
}

MetricId
MetricRegistry::gauge(const std::string &name)
{
    return intern(name, MetricKind::Gauge);
}

MetricId
MetricRegistry::histogram(const std::string &name)
{
    return intern(name, MetricKind::Histogram);
}

MetricId
MetricRegistry::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? kNoMetric : it->second;
}

void
MetricRegistry::addNamed(const std::string &name, uint64_t delta)
{
    if (delta != 0)
        add(counter(name), delta);
}

uint64_t
MetricRegistry::valueByName(const std::string &name) const
{
    MetricId id = find(name);
    if (id == kNoMetric || metrics_[id].kind == MetricKind::Histogram)
        return 0;
    return value(id);
}

void
MetricRegistry::exportTo(StatSet &out) const
{
    for (const MetricInfo &info : metrics_) {
        if (info.kind == MetricKind::Histogram)
            continue;
        uint64_t v = values_[info.slot];
        if (v != 0)
            out.set(info.name, v);
    }
}

} // namespace txrace::telemetry
