#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

namespace perfbench {

Tracer::Scope Tracer::span(const char* name)
{
    if (!enabled_) return Scope{nullptr, -1};
    Span s;
    s.name = name;
    s.start = std::chrono::duration<double>(Clock::now() - origin_).count();
    s.parent = open_.empty() ? -1 : open_.back();
    s.rep = rep_;
    s.op = op_;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(id);
    return Scope{this, id};
}

void Tracer::close(std::int32_t id)
{
    spans_[static_cast<std::size_t>(id)].end =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    open_.pop_back();
}

std::vector<double> Tracer::per_rep(const char* name) const
{
    std::map<std::uint32_t, double> by_rep;
    for (const Span& s : spans_)
        if (std::string_view{s.name} == name) by_rep[s.rep] += s.end - s.start;
    std::vector<double> out;
    for (const auto& [rep, d] : by_rep) out.push_back(d);
    return out;
}

std::vector<double> Tracer::per_call(const char* name) const
{
    std::vector<double> out;
    for (const Span& s : spans_)
        if (std::string_view{s.name} == name) out.push_back(s.end - s.start);
    return out;
}

std::map<std::string, double> Tracer::self_by_name() const
{
    // Spans nest strictly (Scope is RAII on one thread), so each child's
    // interval lies inside its parent's and can simply be subtracted.
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
        out[s.name] += s.end - s.start;
        if (s.parent >= 0)
            out[spans_[static_cast<std::size_t>(s.parent)].name] -=
                s.end - s.start;
    }
    return out;
}

bool Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"rep\": %u, "
                     "\"op\": %u}}%s\n",
                     s.name, s.start * 1e6, (s.end - s.start) * 1e6, i,
                     s.parent, s.rep, s.op,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

void finish_trace(const Tracer& tr, std::size_t reps, const std::string& path)
{
    std::printf("traced self time per rep (%zu reps):\n", reps);
    for (const auto& [name, s] : tr.self_by_name())
        std::printf("  %-28s %12.6f s\n", name.c_str(),
                    s / static_cast<double>(reps));
    if (!path.empty() && !tr.write(path))
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v)
{
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

double peak_rss_mb()
{
    // VmHWM belongs to this process image; getrusage's ru_maxrss would
    // also count the parent's footprint, which survives exec.
    std::ifstream in{"/proc/self/status"};
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0.0;
}

} // namespace perfbench
