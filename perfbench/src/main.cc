// rloop_perfbench: the benchmark's measuring binary. perfbench/run.py builds
// it and calls it twice per run:
//
//   rloop_perfbench setup   --workload W --seed N --workdir D [--repeat K]
//                           [--scale full|tiny]
//       Simulates the workload K times from its seed (concurrently), writes
//       its pcap each time, and records the timings and pcap digests in
//       D/setup.txt.
//   rloop_perfbench measure --workload W --seed N --workdir D --seconds S
//                           --trace 0|1 [--pins FILE] [--scale full|tiny]
//       Runs the paths over that pcap and prints the metric table, then the
//       result line (last line of stdout). Exit status 1 when any output
//       check failed.
//   rloop_perfbench digest  --pcap P
//       Prints the serial loop-set digest of a pcap (for pinning).
//   rloop_perfbench describe
//       Prints the benchmark's constants.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "child.h"
#include "net/pcap.h"
#include "offline.h"
#include "report.h"
#include "run.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: rloop_perfbench setup|measure|digest|describe "
               "[--workload W] [--seed N] [--workdir D] [--seconds S] "
               "[--trace 0|1] [--repeat K] [--scale full|tiny] [--pins F] "
               "[--pcap P]\n");
  return 2;
}

std::string pcap_path(const std::string& workdir, Workload w) {
  return workdir + "/" + workload_name(w) + ".pcap";
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  return fnv1a(bytes.data(), bytes.size());
}

// The set-up repetitions run concurrently, one child each (the budget of a
// run cannot hold three simulations back to back); each writes its own pcap,
// the first one is kept.
int run_setup(const RunContext& ctx, int repeat) {
  std::filesystem::create_directories(ctx.workdir);
  const auto results = run_in_children(repeat, [&](int k) {
    const std::string path =
        k == 0 ? ctx.pcap : ctx.pcap + "." + std::to_string(k);
    const auto t0 = Clock::now();
    const rloop::net::Trace trace = simulate(ctx.workload, ctx.seed, ctx.scale);
    const auto t1 = Clock::now();
    rloop::net::write_pcap(trace, path);
    const auto t2 = Clock::now();
    return Fields{
        {"simulate_s", number_text(static_cast<double>(ns_between(t0, t1)) / 1e9)},
        {"write_pcap_s", number_text(static_cast<double>(ns_between(t1, t2)) / 1e9)},
        {"pcap_fnv", hex64(file_digest(path))},
        {"records", std::to_string(trace.size())}};
  });
  std::string simulate_s, write_s, digests;
  for (int k = 0; k < repeat; ++k) {
    const ChildResult& r = results[static_cast<std::size_t>(k)];
    if (!r.ok) {
      std::fprintf(stderr, "perfbench: set-up %d failed: %s\n", k,
                   r.error.c_str());
      return 1;
    }
    simulate_s += " " + r.fields.at("simulate_s");
    write_s += " " + r.fields.at("write_pcap_s");
    digests += " " + r.fields.at("pcap_fnv");
    if (k > 0) std::filesystem::remove(ctx.pcap + "." + std::to_string(k));
  }
  std::ofstream out(ctx.workdir + "/setup.txt");
  out << "simulate_s" << simulate_s << "\nwrite_pcap_s" << write_s
      << "\npcap_fnv" << digests << "\n";
  if (!out) return 1;
  std::printf("pcap %s records %s digest%s\n", ctx.pcap.c_str(),
              results[0].fields.at("records").c_str(), digests.c_str());
  return 0;
}

// Reads D/setup.txt into ctx; checks the repeated set-ups wrote
// byte-identical pcaps.
bool load_setup(RunContext& ctx, Checks& checks) {
  std::ifstream in(ctx.workdir + "/setup.txt");
  if (!in) return false;
  std::string line;
  std::vector<std::string> fnvs;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "simulate_s" || key == "write_pcap_s") {
      auto& dst = key == "simulate_s" ? ctx.simulate_s : ctx.write_pcap_s;
      for (double v; fields >> v;) dst.push_back(v);
    } else if (key == "pcap_fnv") {
      for (std::string v; fields >> v;) fnvs.push_back(v);
    }
  }
  if (ctx.simulate_s.empty() || ctx.simulate_s.size() != ctx.write_pcap_s.size()) {
    return false;
  }
  for (const auto& f : fnvs) {
    checks.expect(f == fnvs.front(),
                  "set-up is not deterministic: pcap digests " + fnvs.front() +
                      " and " + f);
  }
  return true;
}

// Pins file lines: "<trace> <seed> <digest>" ('#' starts a comment).
std::optional<std::uint64_t> pinned(const std::string& path,
                                    const RunContext& ctx) {
  if (path.empty() || ctx.scale != Scale::full) return std::nullopt;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string trace, digest;
    std::uint64_t seed = 0;
    if (fields >> trace >> seed >> digest && trace == workload_name(ctx.workload) &&
        seed == ctx.seed) {
      return std::strtoull(digest.c_str(), nullptr, 16);
    }
  }
  return std::nullopt;
}

int run_measure(RunContext& ctx, bool traced, const std::string& pins) {
  Checks checks;
  if (!load_setup(ctx, checks)) {
    std::fprintf(stderr, "perfbench: no set-up in %s\n", ctx.workdir.c_str());
    return 2;
  }
  ctx.pinned_digest = pinned(pins, ctx);
  RunInfo info;
  info.workload = workload_name(ctx.workload);
  info.seed = ctx.seed;
  info.traced = traced;
  const std::string stem = ctx.workdir + "/" + info.workload + "-" +
                           std::to_string(ctx.seed) + (traced ? "-traced" : "");
  MetricTable metrics;
  if (traced) {
    info.span_file = stem + "-spans.json";
    metrics = measure_layers(ctx, checks, &info.records, info.span_file);
  } else {
    metrics = measure_end_to_end(ctx, checks, &info.records);
  }
  metrics["failed_frac"] = {checks.failed_frac(), "ratio", checks.attempted};
  metrics["digest_pinned"] = {ctx.pinned_digest ? 1.0 : 0.0, "bool", 1};
  if (!emit(info, host_stamp(), metrics, checks, stem + "-report.json")) {
    return 2;
  }
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    opt[key.substr(2)] = argv[i + 1];
  }
  try {
    if (mode == "describe") {
      std::printf("offered_pps %.17g\n", kOfferedPps);
      return 0;
    }
    if (mode == "digest") {
      if (!opt.count("pcap")) return usage();
      std::printf("%s\n", hex64(run_offline(opt["pcap"], 1).digest).c_str());
      return 0;
    }

    RunContext ctx;
    const auto workload = parse_workload(opt["workload"]);
    const auto scale = parse_scale(opt.count("scale") ? opt["scale"] : "full");
    if (!workload || !scale || !opt.count("seed") || !opt.count("workdir")) {
      return usage();
    }
    ctx.workload = *workload;
    ctx.scale = *scale;
    ctx.seed = std::strtoull(opt["seed"].c_str(), nullptr, 10);
    ctx.workdir = opt["workdir"];
    ctx.pcap = pcap_path(ctx.workdir, ctx.workload);

    if (mode == "setup") {
      const int repeat = opt.count("repeat") ? std::atoi(opt["repeat"].c_str()) : 1;
      if (repeat < 1) return usage();
      return run_setup(ctx, repeat);
    }
    if (mode == "measure") {
      if (!opt.count("seconds") || !opt.count("trace")) return usage();
      ctx.seconds = std::strtod(opt["seconds"].c_str(), nullptr);
      return run_measure(ctx, opt["trace"] == "1", opt["pins"]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
