// The sweep-pareto workload: the bench_sweep acceptance grid (8x8 mesh vs
// torus, two VCs, uniform and tornado, three loads, saturation search on),
// once fault-free and once under 8 transient faults plus 2 permanent link
// kills with replay, early-stop armed, on four Sweep_runner workers, taken
// through to the Pareto front and to_json(). An op is one grid point; a rep
// is both grids, each enumerated and run on a freshly started runner.
//
// Grid points differ in cost by more than an order of magnitude (saturated
// points run to the drain limit), and which points saturate depends on the
// seed. So a run cycles through `inputs` seeds derived from --seed, rep r
// taking input r % inputs: the op-time distribution then pools several
// grids' worth of points instead of hinging on one grid's mix.
#include "bench.h"

#include "arch/noc_builder.h"
#include "explore/sweep_runner.h"
#include "telemetry/registry.h"
#include "topology/deadlock.h"

#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

using namespace noc;

constexpr std::uint32_t workers = 4;
constexpr double cores = 64.0; // both designs are 8x8
constexpr std::uint32_t inputs = 8;

Sweep_spec make_spec(bool faults, const Options& opt, std::uint32_t input)
{
    Network_params vc2;
    vc2.route_vcs = 2; // datelines for the torus; same buffers for the mesh
    Sweep_spec spec;
    spec.name = faults ? "perfbench-sweep-faults" : "perfbench-sweep";
    spec.add_mesh(8, 8, vc2, "vc2");
    spec.add_torus(8, 8, vc2, "vc2");
    spec.add_synthetic(Sweep_pattern_kind::uniform);
    spec.add_synthetic(Sweep_pattern_kind::tornado);
    spec.loads = {0.05, 0.20, 0.35};
    spec.search_saturation = true;
    spec.base.seed = opt.seed * inputs + input;
    spec.base.warmup = opt.tiny ? 100 : 300;
    spec.base.measure = opt.tiny ? 400 : 1'500;
    spec.base.drain_limit = opt.tiny ? 1'000 : 4'000;
    spec.base.early_stop_check = opt.tiny ? 100 : 250;
    if (faults) spec.add_fault_scenario("t8-p2-replay", 8, 2).replay = true;
    return spec;
}

struct Rep {
    double setup_s = 0.0;
    double wall_s = 0.0;
    bool ok = true;                   ///< false fails every op of the rep
    std::uint64_t bad_points = 0;     ///< ops a per-point check failed
    std::vector<Point_result> points; ///< both grids, enumeration order
    std::vector<double> saturation;   ///< per curve, both grids
    std::vector<double> zero_load;    ///< per curve, both grids
    std::string json;                 ///< both grids' to_json()
};

/// Check one grid's result; a violation fails the ops it concerns.
void check_result(const Sweep_result& r, Result& res, Rep& rep)
{
    for (const Design_curve& c : r.curves) {
        const bool searched = res.check(c.saturation_searched,
                                        "every curve has saturation_searched");
        for (const Point_result& p : c.points) {
            bool ok = res.check(p.error.empty(), "no point error");
            ok = res.check(p.load.packets_dropped ==
                               p.load.packets_unreachable,
                           "packets_dropped == packets_unreachable") &&
                 ok;
            rep.points.push_back(p);
            if (!ok || !searched) ++rep.bad_points;
        }
        rep.saturation.push_back(c.saturation_throughput);
        rep.zero_load.push_back(c.zero_load_latency);
    }
}

Rep run_rep(const Options& opt, std::uint32_t input, Tracer& tr, Result& res)
{
    Rep rep;
    const auto span = tr.span("rep");
    const auto t0 = Clock::now();
    std::vector<Sweep_spec> specs;
    std::unique_ptr<Sweep_runner> runner;
    {
        const auto s = tr.span("setup");
        for (const bool faults : {false, true}) {
            specs.push_back(make_spec(faults, opt, input));
            const auto e = tr.span("explore.enumerate");
            (void)specs.back().enumerate();
        }
        const auto r = tr.span("explore.runner_start");
        runner = std::make_unique<Sweep_runner>(workers);
    }
    rep.setup_s = seconds_since(t0);
    const auto t1 = Clock::now();
    std::vector<Sweep_result> results;
    for (const Sweep_spec& spec : specs) {
        {
            const auto s = tr.span("explore.run");
            results.push_back(runner->run(spec));
        }
        const auto s = tr.span("explore.to_json");
        rep.json += results.back().to_json();
    }
    rep.wall_s = seconds_since(t1);
    for (const Sweep_result& r : results) check_result(r, res, rep);
    const auto s = tr.span("explore.teardown");
    runner.reset();
    return rep;
}

std::vector<Rep> timed_phase(const Options& opt, double seconds, Tracer& tr,
                             Result& res)
{
    std::vector<Rep> reps;
    const auto t0 = Clock::now();
    // Every input at least once, and one repeat to check reproduction.
    while (reps.size() <= inputs || seconds_since(t0) < seconds) {
        const auto r = static_cast<std::uint32_t>(reps.size());
        tr.set_rep(r);
        Rep rep = run_rep(opt, r % inputs, tr, res);
        if (r >= inputs)
            rep.ok = res.check(rep.json == reps[r - inputs].json,
                               "reps reproduce the sweep JSON");
        reps.push_back(std::move(rep));
    }
    return reps;
}

/// Outside the timed phase: the same grids at self-test lengths, without
/// the saturation search, under Kernel_mode::reference and under the
/// default schedule, must serialize byte-identically.
void check_reference_prefix(const Options& opt, Result& res)
{
    Options tiny = opt;
    tiny.tiny = true;
    Sweep_runner runner{workers};
    for (const bool faults : {false, true}) {
        Sweep_spec own = make_spec(faults, tiny, 0);
        own.search_saturation = false;
        Sweep_spec ref = own;
        ref.base.build.kernel_mode = Kernel_mode::reference;
        res.check(runner.run(own).to_json() == runner.run(ref).to_json(),
                  "reference-schedule prefix is bit-identical");
    }
}

std::vector<double> point_seconds(const std::vector<Rep>& reps)
{
    std::vector<double> out;
    for (const Rep& r : reps)
        for (const Point_result& p : r.points) out.push_back(p.wall_seconds);
    return out;
}

/// Simulated work of one rep: grid-point protocol cycles (warmup plus the
/// cycles actually measured) and the flits delivered in measured windows.
/// Drains and saturation searches are not counted.
void simulated_work(const Rep& r, Cycle warmup, double& cycles,
                    double& flits)
{
    for (const Point_result& p : r.points) {
        const auto measured = static_cast<double>(p.load.measured_cycles);
        cycles += static_cast<double>(warmup) + measured;
        flits += p.load.accepted_flits_per_node_cycle * cores * measured;
    }
}

void end_to_end(const std::vector<Rep>& reps, const Options& opt,
                Result& res)
{
    res.reps = static_cast<std::uint32_t>(reps.size());
    for (const Rep& r : reps) {
        res.attempted += r.points.size();
        res.failed += r.ok ? r.bad_points : r.points.size();
    }
    const std::vector<double> points = point_seconds(reps);
    // Totals over the run, as for the single-system workloads (see
    // single_system.cpp).
    const std::vector<double> walls =
        each(reps, [](const Rep& r) { return r.wall_s; });
    const Cycle warmup = make_spec(false, opt, 0).base.warmup;
    double wall = 0.0;
    double cycles = 0.0;
    double flits = 0.0;
    for (const Rep& r : reps) {
        wall += r.wall_s;
        simulated_work(r, warmup, cycles, flits);
    }
    res.e2e["wall_s"] = mean(walls);
    res.e2e["setup_s"] =
        median(each(reps, [](const Rep& r) { return r.setup_s; }));
    res.e2e["sim_cycles_per_s"] = cycles / wall;
    res.e2e["flit_hops_per_s"] = flits / wall;
    res.e2e["op_ms_mean"] = mean(points) * 1e3;
    res.e2e["op_ms_p90"] = quantile(points, 0.9) * 1e3;
    res.e2e["peak_rss_mb"] = peak_rss_mb();
    // Design outputs, over the run's inputs: mean zero-load latency over
    // the curves, and mean accepted throughput over the grid points.
    double latency = 0.0;
    double accepted = 0.0;
    double curves = 0.0;
    double grid_points = 0.0;
    std::string json;
    for (std::uint32_t i = 0; i < inputs; ++i) {
        for (const double l : reps[i].zero_load) latency += l;
        for (const Point_result& p : reps[i].points)
            accepted += p.load.accepted_flits_per_node_cycle;
        curves += static_cast<double>(reps[i].zero_load.size());
        grid_points += static_cast<double>(reps[i].points.size());
        json += reps[i].json;
    }
    res.e2e["pkt_latency_cycles"] = latency / curves;
    res.e2e["accepted_flits_per_node_cycle"] = accepted / grid_points;
    res.digest = hex64(fnv1a(json));
    res.rep_wall_s = walls;
}

/// Per-point set-up of every grid point (both grids), called directly:
/// topology, routes, deadlock admission and the system build with the
/// point's own build options (fault plan included).
void time_point_setup(const Options& opt, Tracer& tr, Result& res)
{
    for (const bool faults : {false, true}) {
        const Sweep_spec spec = make_spec(faults, opt, 0);
        for (const Sweep_point& p : spec.enumerate()) {
            const Design_variant& d = spec.designs[p.design];
            Topology topo = [&] {
                const auto s = tr.span("topology.mesh");
                return make_sweep_topology(d);
            }();
            Route_set routes = [&] {
                const auto s = tr.span("topology.routes");
                return make_sweep_routes(d, topo);
            }();
            {
                const auto s = tr.span("topology.deadlock");
                res.check(analyze_deadlock(topo, routes, d.params.route_vcs)
                              .acyclic,
                          "deadlock admission of the grid's routes");
            }
            const Sweep_config cfg =
                point_config(spec, d, p.seed, &topo, p.scenario);
            const auto s = tr.span("arch.build");
            const auto sys = Noc_builder{}
                                 .topology(std::move(topo))
                                 .routes(std::move(routes))
                                 .params(d.params)
                                 .options(cfg.build)
                                 .build();
        }
    }
}

/// explore.saturation_search_s: every curve's saturation search, called
/// directly with the runner's own per-curve config, summed. Each result
/// must equal the one the runner reported for that curve.
double time_saturation_search(const Options& opt, const Rep& rep,
                              Tracer& tr, Result& res)
{
    std::size_t curve = 0;
    const auto t0 = Clock::now();
    for (const bool faults : {false, true}) {
        const Sweep_spec spec = make_spec(faults, opt, 0);
        for (std::uint32_t di = 0; di < spec.designs.size(); ++di)
            for (std::uint32_t ti = 0; ti < spec.traffics.size(); ++ti) {
                const Design_variant& d = spec.designs[di];
                const Traffic_variant& t = spec.traffics[ti];
                const Topology topo = make_sweep_topology(d);
                const Route_set routes = make_sweep_routes(d, topo);
                const Sweep_config cfg = point_config(
                    spec, d,
                    sweep_seed(spec, spec.curve_label(di, ti) + "@saturation"),
                    &topo, 0);
                const auto s = tr.span("explore.saturation_search");
                const double sat = find_saturation_throughput(
                    topo, routes, d.params,
                    [&] { return make_sweep_pattern(t, d, topo.core_count()); },
                    cfg, spec.latency_cap);
                res.check(sat == rep.saturation.at(curve++),
                          "direct saturation search matches the runner's");
            }
    }
    return seconds_since(t0);
}

void per_layer(const Options& opt, const std::vector<Rep>& plain,
               const std::vector<Rep>& traced, Tracer& tr, Result& res)
{
    Metrics& m = res.layers;
    const Rep& r = traced.front(); // counts are those of the first input
    const std::vector<double> points = point_seconds(traced);
    m["explore.point_ms_p50"] = quantile(points, 0.5) * 1e3;
    m["explore.point_ms_p90"] = quantile(points, 0.9) * 1e3;
    m["explore.worker_busy_share"] = median(each(traced, [](const Rep& x) {
        double busy = 0.0;
        for (const Point_result& p : x.points) busy += p.wall_seconds;
        return busy / (workers * x.wall_s);
    }));
    const Sweep_spec spec = make_spec(false, opt, 0);
    double measured = 0.0;
    double stopped = 0.0;
    double retried = 0.0;
    for (const Point_result& p : r.points) {
        measured += static_cast<double>(p.load.measured_cycles);
        stopped += p.load.early_stopped ? 1.0 : 0.0;
        retried += p.retried ? 1.0 : 0.0;
        m["arch.fault_recoveries"] += static_cast<double>(p.load.recoveries);
        m["arch.packets_replayed"] +=
            static_cast<double>(p.load.packets_replayed);
        m["arch.retransmissions"] +=
            static_cast<double>(p.load.retransmissions);
    }
    m["explore.measured_cycle_share"] =
        measured / (static_cast<double>(r.points.size()) *
                    static_cast<double>(spec.base.measure));
    m["explore.early_stopped_points"] = stopped;
    m["explore.retried_points"] = retried;
    m["explore.to_json_ms"] = median(tr.per_call("explore.to_json")) * 1e3;
    m["explore.enumerate_ms"] =
        median(tr.per_call("explore.enumerate")) * 1e3;

    m["explore.saturation_search_s"] = time_saturation_search(opt, r, tr, res);
    time_point_setup(opt, tr, res);
    m["topology.routes_ms"] = median(tr.per_call("topology.routes")) * 1e3;
    m["topology.deadlock_ms"] =
        median(tr.per_call("topology.deadlock")) * 1e3;
    m["arch.build_ms"] = median(tr.per_call("arch.build")) * 1e3;

    // One capture over the first design's full metric surface.
    const Design_variant& d = spec.designs.front();
    Topology topo = make_sweep_topology(d);
    Route_set routes = make_sweep_routes(d, topo);
    const auto sys = Noc_builder{}
                         .topology(std::move(topo))
                         .routes(std::move(routes))
                         .params(d.params)
                         .build();
    Telemetry_registry reg;
    sys->attach_telemetry(reg);
    std::vector<double> capture_s;
    for (int i = 0; i < 20; ++i) {
        const auto t0 = Clock::now();
        const std::vector<std::uint64_t> values = reg.capture();
        capture_s.push_back(seconds_since(t0));
    }
    m["telemetry.capture_us"] = median(capture_s) * 1e6;
    m["telemetry.entries"] = static_cast<double>(reg.entry_count());

    const double plain_wall =
        mean(each(plain, [](const Rep& x) { return x.wall_s; }));
    const double traced_wall =
        mean(each(traced, [](const Rep& x) { return x.wall_s; }));
    m["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall;
}

} // namespace

Result run_sweep_pareto(const Options& opt)
{
    Result res;
    check_reference_prefix(opt, res);
    Tracer off{false};
    const std::vector<Rep> plain = timed_phase(opt, opt.seconds, off, res);
    end_to_end(plain, opt, res);
    if (!opt.trace) return res;

    Tracer tr{true};
    const std::vector<Rep> traced = timed_phase(opt, opt.seconds, tr, res);
    per_layer(opt, plain, traced, tr, res);
    finish_trace(tr, traced.size(), opt.trace_out);
    return res;
}

} // namespace perfbench
