// perfbench — shared vocabulary of the repository benchmark: run options,
// the per-run result, the span tracer and the small statistics helpers the
// workloads share. README.md explains the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run settings from the command line.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /// Length of each timed phase (the untraced one, and under --trace 1
    /// the traced one after it).
    double seconds = 10.0;
    bool trace = false;
    /// Self-test lengths: every workload shrunk to a fraction of a second.
    bool tiny = false;
    /// Where the traced run writes its spans (Chrome trace-event JSON);
    /// empty = keep them in memory only.
    std::string trace_out;
};

/// Metrics by name. main.cpp prints them in the order BENCHMARK.json lists
/// them; a per-layer metric a workload does not exercise reads 0.
using Metrics = std::map<std::string, double>;

/// Everything one run reports.
struct Result {
    Metrics e2e;
    Metrics layers;
    /// Timed ops (1,000-cycle advance chunks, collective steps or sweep
    /// grid points, by workload) and the ones a correctness check failed.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Timed repetitions of the workload's job (each one set up afresh).
    std::uint32_t reps = 0;
    /// wall_s of each untraced rep, in run order.
    std::vector<double> rep_wall_s;
    /// Names of the correctness checks that failed (empty = correct).
    std::vector<std::string> violations;
    /// FNV-1a digest of the simulated outputs; equal for equal seeds.
    std::string digest;

    /// Record a check; returns `ok` so callers can also count failed ops.
    bool check(bool ok, const std::string& what)
    {
        if (!ok) violations.push_back(what);
        return ok;
    }
};

/// In-memory span recorder. A span is one call into a layer made from the
/// benchmark's own code: name, start, end, parent span, and the rep and op
/// it belongs to. Disabled tracers record nothing and read no clock.
class Tracer {
public:
    struct Span {
        const char* name = "";
        double start = 0.0; ///< seconds since the tracer was created
        double end = 0.0;
        std::int32_t parent = -1;
        std::uint32_t rep = 0;
        std::uint32_t op = 0;
    };

    /// RAII handle of an open span; closing it pops the parent stack.
    class Scope {
    public:
        Scope(Tracer* t, std::int32_t id) : tracer_(t), id_(id) {}
        ~Scope()
        {
            if (tracer_ != nullptr) tracer_->close(id_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        std::int32_t id_;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] Scope span(const char* name);
    void set_rep(std::uint32_t rep) { rep_ = rep; }
    void set_op(std::uint32_t op) { op_ = op; }

    /// Per rep, the summed duration of every span called `name`, seconds;
    /// reps with no such span are left out.
    [[nodiscard]] std::vector<double> per_rep(const char* name) const;
    /// Duration of every span called `name`, one entry per call, seconds.
    [[nodiscard]] std::vector<double> per_call(const char* name) const;
    /// Self time (span minus its child spans) summed by span name, seconds.
    [[nodiscard]] std::map<std::string, double> self_by_name() const;
    /// Write every span as Chrome trace-event JSON; false on an IO error.
    bool write(const std::string& path) const;

private:
    void close(std::int32_t id);

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    std::uint32_t rep_ = 0;
    std::uint32_t op_ = 0;
};

/// Print the traced self time per rep by span name, and write the spans to
/// `path` when it is not empty.
void finish_trace(const Tracer& tr, std::size_t reps, const std::string& path);

/// f(rep) for every rep, as doubles.
template <typename Rep, typename F>
[[nodiscard]] std::vector<double> each(const std::vector<Rep>& reps, F f)
{
    std::vector<double> out;
    for (const Rep& r : reps) out.push_back(static_cast<double>(f(r)));
    return out;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& v);

/// 64-bit FNV-1a, for digests of simulated outputs.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ull);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Peak resident set size of this process so far, MB.
[[nodiscard]] double peak_rss_mb();

// --- the four workloads (README.md says why each exists) -------------------
[[nodiscard]] Result run_unicast_hot(const Options& opt);
[[nodiscard]] Result run_unicast_sharded(const Options& opt);
[[nodiscard]] Result run_collective(const Options& opt);
[[nodiscard]] Result run_sweep_pareto(const Options& opt);

} // namespace perfbench
