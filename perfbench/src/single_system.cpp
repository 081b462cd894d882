// The single-system workloads: unicast-8x8-hot, unicast-16x16-sharded and
// collective-8x8. Each rep sets one Noc_system up from scratch, runs a fixed
// simulated job on it (warmup, a measured phase cut into ops, drain, then a
// quiesce with the sources off), checks it, and reads its counters. The
// simulated job depends only on the seed, so every rep of a run must
// produce the same outputs; host time is the only thing that varies.
#include "bench.h"

#include "arch/noc_builder.h"
#include "collective/collective.h"
#include "telemetry/registry.h"
#include "topology/deadlock.h"
#include "topology/mesh.h"
#include "topology/multicast.h"
#include "topology/routing.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string_view>

namespace perfbench {
namespace {

using namespace noc;

/// One single-system workload (sizes in README.md).
struct Job {
    int side = 8;                ///< side x side mesh, one core per switch
    double rate = 0.25;          ///< uniform Bernoulli flits/node/cycle
    std::uint32_t shards = 1;    ///< > 1: sharded schedule, contiguous plan
    Cycle warmup = 2'000;
    Cycle measure = 0;           ///< unicast: window, cut into 1,000-cycle ops
    std::uint32_t steps = 0;     ///< collective: allreduce + allgather steps
    Cycle drain_limit = 200'000; ///< also bounds the quiesce and each collective
};

constexpr Cycle op_cycles = 1'000;
constexpr std::uint32_t collective_root = 27;

/// What one rep measured and counted.
struct Rep {
    double setup_s = 0.0;
    double wall_s = 0.0;      ///< the simulated job: warmup .. quiesced
    double measure_s = 0.0;   ///< the measured phase alone (sum of ops)
    std::vector<double> op_s; ///< host seconds per op
    bool ok = true;           ///< every check of this rep held
    Cycle cycles = 0;         ///< simulated cycles of the job
    std::uint64_t flit_hops = 0;
    double latency = 0.0;
    double accepted = 0.0;
    /// Canonical text of the simulated outputs (the digest's input).
    std::string outputs;
    // Counters read after the job (per-layer metrics).
    std::uint64_t blocked = 0;
    std::uint64_t skip_cycles = 0;
    std::uint64_t skip_regions = 0;
    std::uint64_t cross_wakes = 0;
    std::uint64_t idle_skips = 0;
    std::uint64_t pool_high_water = 0;
    std::uint64_t ni_queued_end = 0;
    std::uint64_t mcast_forks = 0;
    std::uint64_t mcast_copies = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t replayed = 0;
    std::uint64_t retransmissions = 0;
    double step_cycles = 0.0; ///< mean collective step, simulated cycles
    Cycle useful_cycles = 0;  ///< collective start .. completion, summed
    Cycle advanced_cycles = 0; ///< cycles run_to_completion advanced
    double capture_us = 0.0;
    std::uint64_t entries = 0;
};

std::unique_ptr<Noc_system> set_up(const Job& job, std::uint64_t seed,
                                   Kernel_mode mode, Tracer& tr,
                                   Result& res)
{
    const auto span = tr.span("setup");
    Mesh_params mp;
    mp.width = job.side;
    mp.height = job.side;
    const Network_params params{};
    Topology topo = [&] {
        const auto s = tr.span("topology.mesh");
        return make_mesh(mp);
    }();
    Route_set routes = [&] {
        const auto s = tr.span("topology.routes");
        return xy_routes(topo, mp);
    }();
    {
        const auto s = tr.span("topology.deadlock");
        res.check(analyze_deadlock(topo, routes, params.route_vcs).acyclic,
                  "deadlock admission of the XY routes");
    }
    const int cores = topo.core_count();
    std::unique_ptr<Noc_system> sys;
    {
        const auto s = tr.span("arch.build");
        Noc_builder b;
        b.topology(std::move(topo))
            .routes(std::move(routes))
            .params(params)
            .schedule(mode);
        if (mode == Kernel_mode::sharded)
            b.partition(Partition_plan::contiguous(job.shards));
        sys = b.build();
    }
    {
        const auto s = tr.span("arch.sources");
        const std::shared_ptr<const Dest_pattern> pattern =
            make_uniform_pattern(cores);
        for (int c = 0; c < cores; ++c) {
            const Core_id core{static_cast<std::uint32_t>(c)};
            Bernoulli_source::Params sp;
            sp.flits_per_cycle = job.rate;
            sp.seed = seed * 7919 + static_cast<std::uint64_t>(c);
            sys->ni(core).set_source(
                std::make_unique<Bernoulli_source>(core, sp, pattern));
        }
    }
    return sys;
}

/// Closed loop of collective steps: each step is a tree allreduce, then a
/// tree allgather; the next starts when the previous completes.
void run_steps(Noc_system& sys, const Job& job, Tracer& tr, Rep& rep,
               Result& res, std::uint32_t& op, std::string& outputs)
{
    Collective_config allreduce;
    allreduce.kind = Collective_kind::allreduce;
    allreduce.root = Core_id{collective_root};
    allreduce.fanin = 4;
    allreduce.payload_flits = 4;
    Collective_config allgather = allreduce;
    allgather.kind = Collective_kind::allgather;

    // One driver per system at a time: the next one replaces the trees and
    // the delivery listeners before this one is destroyed.
    std::unique_ptr<Collective_driver> driver;
    Cycle step_sum = 0;
    for (std::uint32_t step = 0; step < job.steps; ++step) {
        tr.set_op(++op);
        const auto span = tr.span("op");
        const auto t0 = Clock::now();
        const Cycle step_start = sys.kernel().now();
        Cycle done = step_start;
        for (const Collective_config* cfg : {&allreduce, &allgather}) {
            {
                const auto s = tr.span("collective.driver_ctor");
                driver = std::make_unique<Collective_driver>(sys, *cfg);
            }
            const Cycle start = sys.kernel().now();
            {
                const auto s = tr.span("collective.run");
                done = driver->run_to_completion(job.drain_limit);
            }
            if (!res.check(done != invalid_cycle, "collective completes"))
                done = sys.kernel().now();
            rep.useful_cycles += done - start;
            rep.advanced_cycles += sys.kernel().now() - start;
        }
        step_sum += done - step_start;
        outputs += ' ' + std::to_string(done - step_start);
        rep.op_s.push_back(seconds_since(t0));
    }
    rep.step_cycles = job.steps == 0 ? 0.0
                                     : static_cast<double>(step_sum) /
                                           static_cast<double>(job.steps);
    for (int c = 0; c < sys.topology().core_count(); ++c)
        sys.ni(Core_id{static_cast<std::uint32_t>(c)})
            .set_delivery_listener(nullptr);
}

std::string stats_text(Noc_system& sys)
{
    const Network_stats& st = sys.stats();
    const Exact_stat lat = st.packet_latency();
    const Exact_stat net = st.network_latency();
    std::ostringstream o;
    o.precision(17);
    o << "cycle " << sys.kernel().now() << " created " << st.packets_created()
      << " delivered " << st.packets_delivered() << " dropped "
      << st.packets_dropped() << " unreachable " << st.packets_unreachable()
      << " measured " << st.measured_created() << '/'
      << st.measured_delivered() << '/' << st.measured_dropped() << '/'
      << st.measured_flits_delivered() << " latency " << lat.count() << '/'
      << lat.sum() << '/' << lat.max() << " network " << net.sum()
      << " routed " << sys.total_flits_routed() << " mcast "
      << st.multicast_packets() << '/' << st.multicast_deliveries() << '/'
      << st.multicast_forks() << '/' << st.multicast_copies()
      << " window " << st.measurement_window_cycles() << " accepted "
      << st.accepted_flits_per_cycle() << " steps";
    return o.str();
}

/// Run the job on a freshly set-up system and check it. Ops are numbered
/// from `op` on (trace op ids).
void run_job(Noc_system& sys, const Job& job, Tracer& tr, Rep& rep,
             Result& res, std::uint32_t& op)
{
    const auto t0 = Clock::now();
    {
        const auto s = tr.span("arch.warmup");
        sys.warmup(job.warmup);
    }
    std::string steps;
    {
        const auto s = tr.span("arch.measure");
        if (job.steps == 0) {
            sys.open_measurement(job.measure);
            for (Cycle c = 0; c < job.measure; c += op_cycles) {
                tr.set_op(++op);
                const auto span = tr.span("op");
                const auto o0 = Clock::now();
                sys.advance(op_cycles);
                rep.op_s.push_back(seconds_since(o0));
            }
        } else {
            // The window stays open for the whole closed loop and closes
            // at the last completion, so rates divide by the loop length.
            sys.open_measurement(Cycle{1} << 40);
            run_steps(sys, job, tr, rep, res, op, steps);
            sys.close_measurement();
        }
    }
    for (int c = 0; c < sys.topology().core_count(); ++c)
        rep.ni_queued_end += sys.ni(Core_id{static_cast<std::uint32_t>(c)})
                                 .source_queue_flits();
    {
        const auto s = tr.span("arch.drain");
        res.check(sys.drain(job.drain_limit), "drain completes");
        // Quiesce: sources off, run until nothing is left in flight.
        for (int c = 0; c < sys.topology().core_count(); ++c)
            sys.ni(Core_id{static_cast<std::uint32_t>(c)}).set_source(nullptr);
        const Cycle deadline = sys.kernel().now() + job.drain_limit;
        while (sys.stats().packets_in_flight() != 0 &&
               sys.kernel().now() < deadline)
            sys.advance(64);
    }
    rep.wall_s = seconds_since(t0);
    for (const double s : rep.op_s) rep.measure_s += s;

    const Network_stats& st = sys.stats();
    res.check(sys.flit_pool().live() == 0, "flit pool empty after drain");
    res.check(st.measured_created() ==
                  st.measured_delivered() + st.measured_dropped(),
              "measured created == delivered + dropped");
    res.check(st.packets_dropped() == st.packets_unreachable(),
              "packets_dropped == packets_unreachable");

    rep.cycles = sys.kernel().now();
    rep.flit_hops = sys.total_flits_routed();
    rep.latency = st.packet_latency().mean();
    rep.accepted = st.accepted_flits_per_cycle() / sys.topology().core_count();
    rep.outputs = stats_text(sys) + steps;
    rep.pool_high_water = sys.flit_pool().high_water();
    rep.mcast_forks = st.multicast_forks();
    rep.mcast_copies = st.multicast_copies();
    rep.recoveries = st.recoveries().size();
    rep.replayed = st.packets_replayed();
    rep.retransmissions = st.retransmissions();
}

/// Read the kernel and router counters through the telemetry registry, and
/// time one full capture (the cost a sampler pays per sample).
void read_counters(const Noc_system& sys, Rep& rep)
{
    Telemetry_registry reg;
    sys.attach_telemetry(reg);
    rep.entries = reg.entry_count();
    std::vector<double> capture_s;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20; ++i) {
        const auto t0 = Clock::now();
        values = reg.capture();
        capture_s.push_back(seconds_since(t0));
    }
    rep.capture_us = median(capture_s) * 1e6;
    for (std::size_t i = 0; i < reg.entry_count(); ++i) {
        const std::string& name = reg.entry(i).name;
        const auto ends_with = [&](const char* suffix) {
            const std::string_view n{name};
            const std::string_view s{suffix};
            return n.size() >= s.size() && n.substr(n.size() - s.size()) == s;
        };
        if (name.rfind("router", 0) == 0 && ends_with(".blocked"))
            rep.blocked += values[i];
        else if (name == "kernel.skip_ahead_cycles")
            rep.skip_cycles = values[i];
        else if (name == "kernel.skip_ahead_regions")
            rep.skip_regions = values[i];
        else if (name == "kernel.cross_shard_wakes")
            rep.cross_wakes = values[i];
        else if (name == "kernel.idle_shard_skips")
            rep.idle_skips = values[i];
    }
}

Kernel_mode mode_of(const Job& job)
{
    return job.shards > 1 ? Kernel_mode::sharded : Kernel_mode::activity_gated;
}

/// One complete rep: set up, run, check, read counters, tear down.
Rep run_rep(const Job& job, std::uint64_t seed, Kernel_mode mode,
            Tracer& tr, Result& res, std::uint32_t& op)
{
    Rep rep;
    const std::size_t violations_before = res.violations.size();
    const auto span = tr.span("rep");
    const auto t0 = Clock::now();
    std::unique_ptr<Noc_system> sys = set_up(job, seed, mode, tr, res);
    rep.setup_s = seconds_since(t0);
    run_job(*sys, job, tr, rep, res, op);
    rep.ok = res.violations.size() == violations_before;
    read_counters(*sys, rep);
    const auto s = tr.span("arch.teardown");
    sys.reset();
    return rep;
}

/// Reps back to back for `seconds` (at least three, for the medians). Each
/// rep must reproduce the first one's simulated outputs exactly.
std::vector<Rep> timed_phase(const Job& job, std::uint64_t seed,
                             double seconds, Tracer& tr, Result& res)
{
    std::vector<Rep> reps;
    std::uint32_t op = 0;
    const auto t0 = Clock::now();
    while (reps.size() < 3 || seconds_since(t0) < seconds) {
        tr.set_rep(static_cast<std::uint32_t>(reps.size()));
        Rep rep = run_rep(job, seed, mode_of(job), tr, res, op);
        if (!reps.empty() &&
            !res.check(rep.outputs == reps.front().outputs,
                       "reps reproduce the simulated outputs"))
            rep.ok = false;
        reps.push_back(std::move(rep));
    }
    return reps;
}

/// The outside-the-timed-phase schedule check: a short prefix of the job
/// under Kernel_mode::reference must match the workload's own schedule
/// bit for bit.
void check_reference_prefix(const Job& job, std::uint64_t seed, Result& res)
{
    Job prefix = job;
    prefix.warmup = 200;
    prefix.measure = std::min<Cycle>(job.measure, 2 * op_cycles);
    prefix.steps = std::min<std::uint32_t>(job.steps, 2);
    Tracer off{false};
    std::uint32_t op = 0;
    const Rep own = run_rep(prefix, seed, mode_of(job), off, res, op);
    const Rep ref = run_rep(prefix, seed, Kernel_mode::reference, off, res,
                            op);
    res.check(own.outputs == ref.outputs,
              "reference-schedule prefix is bit-identical");
}

void end_to_end(const std::vector<Rep>& reps, Result& res)
{
    std::vector<double> ops;
    for (const Rep& r : reps) {
        ops.insert(ops.end(), r.op_s.begin(), r.op_s.end());
        res.attempted += r.op_s.size();
        if (!r.ok) res.failed += r.op_s.size();
    }
    res.reps = static_cast<std::uint32_t>(reps.size());
    // Host time is bimodal on shared machines (co-tenant interference
    // switches op times between two levels every few hundred ms), so a
    // median jumps between the levels as their duty cycle drifts. Time
    // and rates are therefore totals over the run: mean rep time, and
    // total simulated work over total job time.
    const std::vector<double> walls =
        each(reps, [](const Rep& r) { return r.wall_s; });
    double wall = 0.0;
    double cycles = 0.0;
    double hops = 0.0;
    for (const Rep& r : reps) {
        wall += r.wall_s;
        cycles += static_cast<double>(r.cycles);
        hops += static_cast<double>(r.flit_hops);
    }
    res.e2e["wall_s"] = mean(walls);
    res.e2e["setup_s"] =
        median(each(reps, [](const Rep& r) { return r.setup_s; }));
    res.e2e["sim_cycles_per_s"] = cycles / wall;
    res.e2e["flit_hops_per_s"] = hops / wall;
    res.e2e["op_ms_mean"] = mean(ops) * 1e3;
    res.e2e["op_ms_p90"] = quantile(ops, 0.9) * 1e3;
    res.e2e["peak_rss_mb"] = peak_rss_mb();
    res.e2e["pkt_latency_cycles"] = reps.front().latency;
    res.e2e["accepted_flits_per_node_cycle"] = reps.front().accepted;
    res.digest = hex64(fnv1a(reps.front().outputs));
    res.rep_wall_s = walls;
}

double ms_p50(const std::vector<double>& s) { return median(s) * 1e3; }

void per_layer(const Job& job, const std::vector<Rep>& plain,
               const std::vector<Rep>& traced, const Tracer& tr,
               Result& res)
{
    Metrics& m = res.layers;
    const Rep& r = traced.front();
    m["arch.warmup_s"] = median(tr.per_rep("arch.warmup"));
    m["arch.measure_s"] = median(tr.per_rep("arch.measure"));
    m["arch.drain_s"] = median(tr.per_rep("arch.drain"));
    m["arch.router_blocked"] = static_cast<double>(r.blocked);
    m["arch.flits_routed"] = static_cast<double>(r.flit_hops);
    m["arch.routed_per_attempt"] =
        r.flit_hops + r.blocked == 0
            ? 0.0
            : static_cast<double>(r.flit_hops) /
                  static_cast<double>(r.flit_hops + r.blocked);
    m["arch.pool_high_water"] = static_cast<double>(r.pool_high_water);
    m["arch.ni_queued_end"] = static_cast<double>(r.ni_queued_end);
    m["arch.mcast_forks"] = static_cast<double>(r.mcast_forks);
    m["arch.mcast_copies"] = static_cast<double>(r.mcast_copies);
    m["arch.fault_recoveries"] = static_cast<double>(r.recoveries);
    m["arch.packets_replayed"] = static_cast<double>(r.replayed);
    m["arch.retransmissions"] = static_cast<double>(r.retransmissions);
    m["arch.build_ms"] = ms_p50(tr.per_call("arch.build"));
    m["topology.routes_ms"] = ms_p50(tr.per_call("topology.routes"));
    m["topology.deadlock_ms"] = ms_p50(tr.per_call("topology.deadlock"));
    m["sim.skip_ahead_cycles"] = static_cast<double>(r.skip_cycles);
    m["sim.skip_ahead_regions"] = static_cast<double>(r.skip_regions);
    m["sim.idle_shard_skips"] = static_cast<double>(r.idle_skips);
    m["sim.cross_shard_wakes_per_kcycle"] =
        static_cast<double>(r.cross_wakes) * 1e3 /
        static_cast<double>(r.cycles);
    m["telemetry.capture_us"] =
        median(each(traced, [](const Rep& x) { return x.capture_us; }));
    m["telemetry.entries"] = static_cast<double>(r.entries);
    if (job.steps > 0) {
        m["collective.driver_ctor_ms"] =
            ms_p50(tr.per_call("collective.driver_ctor"));
        m["collective.run_ms"] = ms_p50(tr.per_call("collective.run"));
        m["collective.step_cycles"] = r.step_cycles;
        m["collective.useful_cycle_share"] =
            static_cast<double>(r.useful_cycles) /
            static_cast<double>(r.advanced_cycles);
    }
    const double plain_wall =
        mean(each(plain, [](const Rep& x) { return x.wall_s; }));
    const double traced_wall =
        mean(each(traced, [](const Rep& x) { return x.wall_s; }));
    m["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall;
}

/// topology.mcast_routes_ms: the collective's tree construction and its
/// branching-CDG admission, called directly (median of five).
double time_mcast_routes(const Job& job, Tracer& tr, Result& res)
{
    Mesh_params mp;
    mp.width = job.side;
    mp.height = job.side;
    const Topology topo = make_mesh(mp);
    const Route_set routes = xy_routes(topo, mp);
    const int vcs = Network_params{}.route_vcs;
    std::vector<std::vector<Core_id>> dsets(1);
    for (int c = 0; c < topo.core_count(); ++c)
        dsets[0].push_back(Core_id{static_cast<std::uint32_t>(c)});
    for (int i = 0; i < 5; ++i) {
        const auto s = tr.span("topology.mcast_routes");
        const Mcast_route_set trees =
            multicast_routes(topo, routes, dsets, vcs);
        std::vector<const Mcast_tree*> all;
        for (int c = 0; c < topo.core_count(); ++c)
            all.push_back(&trees.at(Core_id{static_cast<std::uint32_t>(c)},
                                    Dset_id{0}));
        res.check(analyze_multicast_deadlock(topo, &routes, all, vcs).acyclic,
                  "multicast trees admitted");
    }
    return ms_p50(tr.per_call("topology.mcast_routes"));
}

/// sim.parallel_efficiency: the same job on one shard, measured phase
/// against the workload's own (untraced) shards.
double parallel_efficiency(const Job& job, std::uint64_t seed,
                           const std::vector<Rep>& plain, Result& res)
{
    Job one = job;
    one.shards = 1;
    Tracer off{false};
    std::uint32_t op = 0;
    const Rep single = run_rep(one, seed, Kernel_mode::sharded, off, res, op);
    res.check(single.outputs == plain.front().outputs,
              "one-shard run is bit-identical to the sharded run");
    const double sharded =
        mean(each(plain, [](const Rep& r) { return r.measure_s; }));
    return single.measure_s / (static_cast<double>(job.shards) * sharded);
}

Result run_single_system(const Job& job, const Options& opt)
{
    Result res;
    check_reference_prefix(job, opt.seed, res);
    Tracer off{false};
    const std::vector<Rep> plain =
        timed_phase(job, opt.seed, opt.seconds, off, res);
    end_to_end(plain, res);
    if (!opt.trace) return res;

    Tracer tr{true};
    const std::vector<Rep> traced =
        timed_phase(job, opt.seed, opt.seconds, tr, res);
    per_layer(job, plain, traced, tr, res);
    if (job.steps > 0)
        res.layers["topology.mcast_routes_ms"] =
            time_mcast_routes(job, tr, res);
    if (job.shards > 1)
        res.layers["sim.parallel_efficiency"] =
            parallel_efficiency(job, opt.seed, plain, res);
    finish_trace(tr, traced.size(), opt.trace_out);
    return res;
}

} // namespace

Result run_unicast_hot(const Options& opt)
{
    Job job;
    job.side = 8;
    job.rate = 0.25;
    job.warmup = opt.tiny ? 500 : 2'000;
    job.measure = opt.tiny ? 2'000 : 30'000;
    return run_single_system(job, opt);
}

Result run_unicast_sharded(const Options& opt)
{
    Job job;
    job.side = 16;
    job.rate = 0.10;
    job.shards = 4;
    job.warmup = opt.tiny ? 500 : 2'000;
    job.measure = opt.tiny ? 2'000 : 20'000;
    return run_single_system(job, opt);
}

Result run_collective(const Options& opt)
{
    Job job;
    job.side = 8;
    job.rate = 0.05;
    job.warmup = opt.tiny ? 500 : 2'000;
    job.steps = opt.tiny ? 3 : 50;
    return run_single_system(job, opt);
}

} // namespace perfbench
