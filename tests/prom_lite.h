// Test helper: a strict Prometheus text-exposition-format validator.
//
// The repo's /metrics output is hand-rendered (no client library), so tests
// hold it to the format spec with this equally dependency-free parser. It is
// deliberately stricter than what a real Prometheus server tolerates —
// anything it rejects would at best scrape with warnings:
//
//   * metric names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names
//     [a-zA-Z_][a-zA-Z0-9_]* (no reserved __ prefix), label values use only
//     the \\ \" \n escapes;
//   * every family with samples has # HELP and # TYPE, each exactly once,
//     both before the first sample, with a known type;
//   * a family's samples are contiguous (no interleaving families);
//   * histogram families expose only _bucket/_sum/_count series; buckets
//     carry a parseable `le`, are cumulative in ascending `le` order, end at
//     le="+Inf", and the +Inf bucket equals _count — per label set;
//   * summary families expose quantile series (quantile in [0,1]) plus
//     _sum/_count;
//   * counter and gauge sample names equal the family name exactly, and
//     counter values are non-negative;
//   * sample values parse as Go floats (incl. +Inf/-Inf/NaN), no
//     timestamps (the exporter never emits them), and the exposition ends
//     with a newline.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rloop::testing {

struct PromSample {
  std::string name;  // full series name (may carry _bucket/_sum/_count)
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
};

struct PromFamily {
  std::string type;  // counter | gauge | histogram | summary | untyped
  std::string help;
  bool has_help = false;
  bool has_type = false;
  std::vector<PromSample> samples;
};

namespace prom_detail {

inline bool valid_metric_name(std::string_view s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_' ||
        s[0] == ':')) {
    return false;
  }
  for (const char c : s.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':')) {
      return false;
    }
  }
  return true;
}

inline bool valid_label_name(std::string_view s) {
  if (s.empty()) return false;
  if (s.size() >= 2 && s[0] == '_' && s[1] == '_') return false;  // reserved
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (const char c : s.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

inline bool parse_value(std::string_view token, double* out) {
  if (token == "+Inf" || token == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "NaN") {
    *out = std::nan("");
    return true;
  }
  if (token.empty()) return false;
  const std::string copy(token);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

// "name_bucket" -> "name" when `suffix` is "_bucket"; empty if no match.
inline std::string_view strip_suffix(std::string_view name,
                                     std::string_view suffix) {
  if (name.size() > suffix.size() &&
      name.substr(name.size() - suffix.size()) == suffix) {
    return name.substr(0, name.size() - suffix.size());
  }
  return {};
}

struct Parser {
  std::string_view text;
  std::map<std::string, PromFamily>* families;
  std::string error{};
  int line_no = 0;

  bool fail(const std::string& message) {
    if (error.empty()) {
      error = "line " + std::to_string(line_no) + ": " + message;
    }
    return false;
  }

  // The family a series name belongs to, honoring declared histogram /
  // summary types for the _bucket/_sum/_count suffixes.
  std::string family_of(std::string_view series) {
    for (const auto suffix : {"_bucket", "_sum", "_count"}) {
      const std::string_view base = strip_suffix(series, suffix);
      if (base.empty()) continue;
      auto it = families->find(std::string(base));
      if (it == families->end()) continue;
      if (it->second.type == "histogram" || it->second.type == "summary") {
        return std::string(base);
      }
    }
    return std::string(series);
  }

  bool parse_sample(std::string_view line) {
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ' &&
           line[pos] != '\t') {
      ++pos;
    }
    PromSample sample;
    sample.name = std::string(line.substr(0, pos));
    if (!valid_metric_name(sample.name)) {
      return fail("bad metric name '" + sample.name + "'");
    }
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      if (pos < line.size() && line[pos] == '}') {
        // strict: no empty label set rendered as {}
        return fail("empty label braces");
      }
      for (;;) {
        std::size_t eq = pos;
        while (eq < line.size() && line[eq] != '=') ++eq;
        if (eq >= line.size()) return fail("label without '='");
        const std::string label_name(line.substr(pos, eq - pos));
        if (!valid_label_name(label_name)) {
          return fail("bad label name '" + label_name + "'");
        }
        pos = eq + 1;
        if (pos >= line.size() || line[pos] != '"') {
          return fail("label value must be quoted");
        }
        ++pos;
        std::string value;
        bool closed = false;
        while (pos < line.size()) {
          const char c = line[pos];
          if (c == '"') {
            closed = true;
            ++pos;
            break;
          }
          if (c == '\\') {
            ++pos;
            if (pos >= line.size()) return fail("truncated escape");
            const char e = line[pos];
            if (e == '\\') value += '\\';
            else if (e == '"') value += '"';
            else if (e == 'n') value += '\n';
            else return fail("bad escape in label value");
            ++pos;
            continue;
          }
          if (c == '\n') return fail("raw newline in label value");
          value += c;
          ++pos;
        }
        if (!closed) return fail("unterminated label value");
        for (const auto& existing : sample.labels) {
          if (existing.first == label_name) {
            return fail("duplicate label '" + label_name + "'");
          }
        }
        sample.labels.emplace_back(label_name, std::move(value));
        if (pos < line.size() && line[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < line.size() && line[pos] == '}') {
          ++pos;
          break;
        }
        return fail("expected ',' or '}' after label");
      }
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail("expected single space before value");
    }
    ++pos;
    const std::string_view rest = line.substr(pos);
    if (rest.find(' ') != std::string_view::npos ||
        rest.find('\t') != std::string_view::npos) {
      return fail("unexpected content after value (timestamps not allowed)");
    }
    if (!parse_value(rest, &sample.value)) {
      return fail("unparseable value '" + std::string(rest) + "'");
    }

    const std::string family_name = family_of(sample.name);
    auto& family = (*families)[family_name];
    family.samples.push_back(std::move(sample));
    return true;
  }

  // "# HELP name text" / "# TYPE name type"
  bool parse_comment(std::string_view line) {
    if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
      return true;  // plain comment, ignored
    }
    const bool is_help = line.rfind("# HELP ", 0) == 0;
    std::string_view rest = line.substr(7);
    const std::size_t space = rest.find(' ');
    const std::string name(space == std::string_view::npos
                               ? rest
                               : rest.substr(0, space));
    if (!valid_metric_name(name)) {
      return fail("bad metric name in comment '" + name + "'");
    }
    auto& family = (*families)[name];
    if (!family.samples.empty()) {
      return fail("# " + std::string(is_help ? "HELP" : "TYPE") + " for '" +
                  name + "' after its samples");
    }
    if (is_help) {
      if (family.has_help) return fail("duplicate # HELP for '" + name + "'");
      family.has_help = true;
      family.help = space == std::string_view::npos
                        ? ""
                        : std::string(rest.substr(space + 1));
      if (family.help.empty()) return fail("empty help text for '" + name + "'");
    } else {
      if (family.has_type) return fail("duplicate # TYPE for '" + name + "'");
      family.has_type = true;
      const std::string type(space == std::string_view::npos
                                 ? ""
                                 : rest.substr(space + 1));
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped") {
        return fail("unknown type '" + type + "' for '" + name + "'");
      }
      family.type = type;
    }
    return true;
  }

};

}  // namespace prom_detail

// Parses and validates `text` as Prometheus text exposition format. On
// success fills `*families` (keyed by family name). On failure returns false
// with a description in `*error`.
inline bool parse_prometheus(std::string_view text,
                             std::map<std::string, PromFamily>* families,
                             std::string* error = nullptr) {
  families->clear();
  prom_detail::Parser parser{text, families};

  // Pass 1: HELP/TYPE declarations and raw samples, with per-line syntax.
  // Contiguity is checked inline via the order samples arrive.
  if (!text.empty() && text.back() != '\n') {
    if (error) *error = "exposition must end with a newline";
    return false;
  }
  std::size_t start = 0;
  std::string current;
  std::vector<std::string> closed;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    ++parser.line_no;
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (!parser.parse_comment(line)) {
        if (error) *error = parser.error;
        return false;
      }
      continue;
    }
    if (!parser.parse_sample(line)) {
      if (error) *error = parser.error;
      return false;
    }
    // The sample just landed in family_of(name of the last sample). Re-derive
    // it for the contiguity check.
    std::string_view name = line.substr(0, line.find_first_of("{ \t"));
    const std::string family = parser.family_of(name);
    if (family != current) {
      for (const auto& prev : closed) {
        if (prev == family) {
          if (error) {
            *error = "line " + std::to_string(parser.line_no) +
                     ": samples for '" + family + "' are not contiguous";
          }
          return false;
        }
      }
      if (!current.empty()) closed.push_back(current);
      current = family;
    }
  }

  // Pass 2: per-family semantic checks.
  for (const auto& [name, family] : *families) {
    auto semantic_fail = [&](const std::string& message) {
      if (error) *error = "family '" + name + "': " + message;
      return false;
    };
    if (family.samples.empty()) {
      // HELP/TYPE with no samples is legal exposition; nothing to check.
      continue;
    }
    if (!family.has_help) return semantic_fail("missing # HELP");
    if (!family.has_type) return semantic_fail("missing # TYPE");

    if (family.type == "counter" || family.type == "gauge" ||
        family.type == "untyped") {
      for (const auto& sample : family.samples) {
        if (sample.name != name) {
          return semantic_fail("sample '" + sample.name +
                               "' does not match family name");
        }
        if (family.type == "counter" && sample.value < 0) {
          return semantic_fail("negative counter value");
        }
      }
      continue;
    }

    if (family.type == "summary") {
      bool saw_sum = false;
      bool saw_count = false;
      for (const auto& sample : family.samples) {
        if (sample.name == name + "_sum") {
          saw_sum = true;
        } else if (sample.name == name + "_count") {
          saw_count = true;
        } else if (sample.name == name) {
          double q = -1;
          for (const auto& [k, v] : sample.labels) {
            if (k == "quantile" && !prom_detail::parse_value(v, &q)) {
              return semantic_fail("unparseable quantile '" + v + "'");
            }
          }
          if (!(q >= 0.0 && q <= 1.0)) {
            return semantic_fail("quantile label missing or outside [0,1]");
          }
        } else {
          return semantic_fail("unexpected series '" + sample.name + "'");
        }
      }
      if (!saw_sum || !saw_count) {
        return semantic_fail("summary missing _sum or _count");
      }
      continue;
    }

    // Histogram: group by the non-`le` label set.
    struct Group {
      std::vector<std::pair<double, double>> buckets;  // (le, value)
      bool has_sum = false;
      bool has_count = false;
      double count = 0;
    };
    std::map<std::string, Group> groups;
    auto group_key = [](const PromSample& sample) {
      std::string key;
      for (const auto& [k, v] : sample.labels) {
        if (k == "le") continue;
        key += k + "=" + v + ",";
      }
      return key;
    };
    for (const auto& sample : family.samples) {
      if (sample.name == name + "_bucket") {
        double le = 0;
        bool found = false;
        for (const auto& [k, v] : sample.labels) {
          if (k != "le") continue;
          found = true;
          if (!prom_detail::parse_value(v, &le)) {
            return semantic_fail("unparseable le '" + v + "'");
          }
        }
        if (!found) return semantic_fail("_bucket without le label");
        groups[group_key(sample)].buckets.emplace_back(le, sample.value);
      } else if (sample.name == name + "_sum") {
        groups[group_key(sample)].has_sum = true;
      } else if (sample.name == name + "_count") {
        auto& group = groups[group_key(sample)];
        group.has_count = true;
        group.count = sample.value;
      } else {
        return semantic_fail("unexpected series '" + sample.name + "'");
      }
    }
    for (const auto& [key, group] : groups) {
      if (!group.has_sum || !group.has_count) {
        return semantic_fail("histogram missing _sum or _count");
      }
      if (group.buckets.empty()) {
        return semantic_fail("histogram without buckets");
      }
      double prev_le = -std::numeric_limits<double>::infinity();
      double prev_value = 0;
      for (const auto& [le, value] : group.buckets) {
        if (!(le > prev_le)) {
          return semantic_fail("bucket le values not strictly increasing");
        }
        if (value + 1e-9 < prev_value) {
          return semantic_fail("bucket counts not cumulative");
        }
        prev_le = le;
        prev_value = value;
      }
      if (!std::isinf(group.buckets.back().first)) {
        return semantic_fail("last bucket is not le=\"+Inf\"");
      }
      if (group.buckets.back().second != group.count) {
        return semantic_fail("+Inf bucket does not equal _count");
      }
    }
  }
  return true;
}

// Convenience wrapper when only pass/fail is needed.
inline bool is_valid_prometheus(std::string_view text,
                                std::string* error = nullptr) {
  std::map<std::string, PromFamily> families;
  return parse_prometheus(text, &families, error);
}

}  // namespace rloop::testing
