// perfbench — one workload of the repository benchmark per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <path>] [--source <stamp>]
//
// Prints human-readable lines (provenance stamp, output digest, failed
// checks, traced self-time breakdown), then as its LAST line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set;
// both lists below match BENCHMARK.json name for name and unit for unit
// (run.py --self-test checks that). README.md documents every metric.
#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>

namespace {

using namespace perfbench;

struct Metric_def {
    const char* name;
    const char* unit;
};

constexpr Metric_def end_to_end_metrics[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"flit_hops_per_s", "flit-hops/s"},
    {"op_ms_mean", "ms"},
    {"op_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
    {"pkt_latency_cycles", "cycles"},
    {"accepted_flits_per_node_cycle", "flits/node/cycle"},
};

constexpr Metric_def per_layer_metrics[] = {
    {"arch.warmup_s", "s"},
    {"arch.measure_s", "s"},
    {"arch.drain_s", "s"},
    {"arch.router_blocked", "count"},
    {"arch.routed_per_attempt", "ratio"},
    {"arch.flits_routed", "count"},
    {"arch.pool_high_water", "flits"},
    {"arch.ni_queued_end", "flits"},
    {"arch.mcast_forks", "count"},
    {"arch.mcast_copies", "count"},
    {"arch.fault_recoveries", "count"},
    {"arch.packets_replayed", "count"},
    {"arch.retransmissions", "count"},
    {"arch.build_ms", "ms"},
    {"sim.skip_ahead_cycles", "cycles"},
    {"sim.skip_ahead_regions", "count"},
    {"sim.parallel_efficiency", "ratio"},
    {"sim.cross_shard_wakes_per_kcycle", "1/kcycle"},
    {"sim.idle_shard_skips", "count"},
    {"topology.routes_ms", "ms"},
    {"topology.deadlock_ms", "ms"},
    {"topology.mcast_routes_ms", "ms"},
    {"collective.driver_ctor_ms", "ms"},
    {"collective.run_ms", "ms"},
    {"collective.useful_cycle_share", "ratio"},
    {"collective.step_cycles", "cycles"},
    {"explore.point_ms_p50", "ms"},
    {"explore.point_ms_p90", "ms"},
    {"explore.worker_busy_share", "ratio"},
    {"explore.saturation_search_s", "s"},
    {"explore.measured_cycle_share", "ratio"},
    {"explore.early_stopped_points", "count"},
    {"explore.retried_points", "count"},
    {"explore.to_json_ms", "ms"},
    {"explore.enumerate_ms", "ms"},
    {"telemetry.capture_us", "us"},
    {"telemetry.entries", "count"},
    {"trace.overhead_share", "ratio"},
};

/// Seed kept out of development runs; use it only to confirm a claim.
constexpr std::uint64_t held_out_seed = 20100613;

struct Workload {
    const char* name;
    Result (*run)(const Options&);
};

constexpr Workload workloads[] = {
    {"unicast-8x8-hot", run_unicast_hot},
    {"unicast-16x16-sharded", run_unicast_sharded},
    {"collective-8x8", run_collective},
    {"sweep-pareto", run_sweep_pareto},
};

int usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--tiny] [--trace-out "
                 "<path>] [--source <stamp>]\n",
                 why);
    return 2;
}

std::string cpu_model()
{
    std::ifstream in{"/proc/cpuinfo"};
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

/// Print `defs` from `values` as the "metrics" object; false when a metric
/// the workload must report is missing or not finite, or when `values`
/// holds a name `defs` does not list.
bool print_metrics(const Metric_def* defs, std::size_t n,
                   const Metrics& values, bool zero_if_absent)
{
    bool ok = true;
    for (const auto& [name, v] : values)
        ok = ok && std::any_of(defs, defs + n, [&](const Metric_def& d) {
                 return name == d.name;
             });
    std::printf("\"metrics\": {");
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = values.find(defs[i].name);
        double v = 0.0;
        if (it != values.end())
            v = it->second;
        else if (!zero_if_absent)
            ok = false;
        if (!std::isfinite(v)) {
            ok = false;
            v = 0.0;
        }
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
    }
    std::printf("}");
    return ok;
}

} // namespace

int main(int argc, char** argv)
{
    Options opt;
    std::string source = "unknown";
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            opt.tiny = true;
        } else if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(argv[++i], nullptr);
            have_seconds = opt.seconds > 0.0;
        } else if (a == "--trace") {
            const std::string v = argv[++i];
            opt.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else if (a == "--trace-out") {
            opt.trace_out = argv[++i];
        } else if (a == "--source") {
            source = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    const Workload* workload = nullptr;
    for (const Workload& w : workloads)
        if (opt.workload == w.name) workload = &w;
    if (workload == nullptr) return usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds > 0 and --trace 0|1 are required");

    const Result res = workload->run(opt);

    std::printf(
        "provenance: {\"workload\": %s, \"seed\": %llu, \"held_out_seed\": "
        "%llu, \"trace\": %d, \"seconds\": %g, \"tiny\": %s, \"reps\": %u, "
        "\"source\": %s, \"compiler\": %s, \"flags\": %s, \"cpu\": %s, "
        "\"nproc\": %u}\n",
        json_string(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed),
        static_cast<unsigned long long>(held_out_seed), opt.trace ? 1 : 0,
        opt.seconds, opt.tiny ? "true" : "false", res.reps,
        json_string(source).c_str(), json_string(PERFBENCH_COMPILER).c_str(),
        json_string(PERFBENCH_FLAGS).c_str(), json_string(cpu_model()).c_str(),
        std::thread::hardware_concurrency());
    std::printf("digest: %s\n", res.digest.c_str());
    std::printf("rep wall_s:");
    for (const double w : res.rep_wall_s) std::printf(" %.4f", w);
    std::printf("\n");
    std::printf("ops: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    const std::set<std::string> failed_checks(res.violations.begin(),
                                              res.violations.end());
    for (const std::string& v : failed_checks)
        std::printf("CHECK FAILED: %s\n", v.c_str());
    if (opt.trace)
        for (const auto& [name, v] : res.e2e)
            std::printf("untraced %s = %.6g\n", name.c_str(), v);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                failed_checks.empty() ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    const bool complete =
        opt.trace ? print_metrics(per_layer_metrics,
                                  std::size(per_layer_metrics), res.layers,
                                  true)
                  : print_metrics(end_to_end_metrics,
                                  std::size(end_to_end_metrics), res.e2e,
                                  false);
    std::printf("}\n");
    return complete ? 0 : 3;
}
