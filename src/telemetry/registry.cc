#include "telemetry/registry.h"

#include <algorithm>
#include <stdexcept>

namespace rloop::telemetry {

namespace {

// Canonical map key: name{k1="v1",k2="v2"} with labels sorted by key.
std::string make_key(std::string_view name, const LabelSet& labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i) key += ',';
      key += labels[i].first;
      key += "=\"";
      key += labels[i].second;
      key += '"';
    }
    key += '}';
  }
  return key;
}

}  // namespace

Registry::Entry& Registry::find_or_create(std::string_view name,
                                          LabelSet& labels,
                                          std::string_view help,
                                          MetricType type) {
  std::sort(labels.begin(), labels.end());
  const std::string key = make_key(name, labels);
  auto [it, inserted] = metrics_.try_emplace(key);
  Entry& entry = it->second;
  if (inserted) {
    entry.type = type;
    entry.name = std::string(name);
    entry.labels = labels;
    entry.help = std::string(help);
    ++generation_;
  } else if (entry.type != type) {
    throw std::invalid_argument("telemetry: metric '" + key +
                                "' re-registered as a different type");
  }
  return entry;
}

Counter* Registry::counter(std::string_view name, LabelSet labels,
                           std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = find_or_create(name, labels, help, MetricType::counter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return entry.counter.get();
}

Gauge* Registry::gauge(std::string_view name, LabelSet labels,
                       std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = find_or_create(name, labels, help, MetricType::gauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return entry.gauge.get();
}

Histogram* Registry::histogram(std::string_view name,
                               std::vector<double> bounds, LabelSet labels,
                               std::string_view help) {
  if (!std::is_sorted(bounds.begin(), bounds.end()) ||
      std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
    throw std::invalid_argument(
        "telemetry: histogram bounds must be strictly increasing");
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = find_or_create(name, labels, help, MetricType::histogram);
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return entry.histogram.get();
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [key, entry] : metrics_) {
    MetricSnapshot snap;
    snap.name = entry.name;
    snap.labels = entry.labels;
    snap.type = entry.type;
    snap.help = entry.help;
    switch (entry.type) {
      case MetricType::counter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricType::gauge:
        snap.value = static_cast<double>(entry.gauge->value());
        break;
      case MetricType::histogram: {
        const Histogram& h = *entry.histogram;
        snap.bounds = h.bounds();
        snap.buckets.resize(snap.bounds.size() + 1);
        for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
          snap.buckets[i] = h.bucket(i);
        }
        snap.count = h.count();
        snap.sum = h.sum();
        break;
      }
      case MetricType::summary:
        // Never registered: summaries are derived from histograms at
        // export time (telemetry/quantiles.h).
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::uint64_t Registry::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

}  // namespace rloop::telemetry
