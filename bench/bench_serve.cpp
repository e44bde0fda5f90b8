// Serve-daemon round-trip cost: cold-miss latency (load + fingerprint +
// model + cache insert) versus plan-cache-hit latency (fingerprint + LRU
// lookup + payload replay), plus sustained request throughput through the
// full run() loop with its bounded admission queue.
//
// Writes its record to BENCH_serve.json (--out overrides the path) once
// every request got the answer it should; --smoke shrinks the request
// counts and matrix sizes for CI.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"

namespace {

using namespace spmvcache;

std::string predict_line(const std::string& id, const std::string& spec,
                         std::int64_t threads) {
    return "{\"id\":\"" + id + "\",\"op\":\"predict\",\"gen\":\"" + spec +
           "\",\"threads\":" + std::to_string(threads) + "}";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli = parse_cli(
        argc, argv, "bench_serve",
        {"smoke", "threads", "cold", "hits", "stream", "size", "out"});
    const bool smoke = cli.has("smoke");
    const std::int64_t threads = cli.get_int("threads", 4);
    // Distinct matrices for the cold legs: generator sizes step so every
    // request carries a different fingerprint.
    const std::int64_t cold_count =
        cli.get_int("cold", smoke ? 8 : 32);
    const std::int64_t hit_count =
        cli.get_int("hits", smoke ? 200 : 2000);
    const std::int64_t stream_count =
        cli.get_int("stream", smoke ? 400 : 4000);
    const std::int64_t base = cli.get_int("size", smoke ? 24 : 96);

    std::cout << "Serve round-trip cost, " << cold_count
              << " cold misses / " << hit_count << " cache hits / "
              << stream_count << " streamed requests\n\n";

    ServeOptions options;
    options.workers = 4;
    options.queue_capacity = 8192;  // throughput leg feeds one burst
    Server server(options);

    // Cold misses: every spec is new to the cache.
    Timer cold_timer;
    for (std::int64_t i = 0; i < cold_count; ++i) {
        const std::string spec =
            "stencil2d5:" + std::to_string(base + i);
        const std::string line = server.handle_line(
            predict_line("cold" + std::to_string(i), spec, threads));
        if (line.find("\"ok\":true") == std::string::npos) {
            std::cerr << "FATAL: cold request failed: " << line << "\n";
            return 1;
        }
    }
    const double cold_seconds = cold_timer.seconds();

    // Cache hits: one spec, replayed from the plan cache every time.
    const std::string hot_spec = "stencil2d5:" + std::to_string(base);
    Timer hit_timer;
    for (std::int64_t i = 0; i < hit_count; ++i) {
        const std::string line = server.handle_line(
            predict_line("hit" + std::to_string(i), hot_spec, threads));
        if (line.find("\"cache_hit\":true") == std::string::npos) {
            std::cerr << "FATAL: expected a cache hit: " << line << "\n";
            return 1;
        }
    }
    const double hit_seconds = hit_timer.seconds();

    // Sustained throughput through the full loop: a burst of mixed
    // requests (hits dominate, like a tuning sweep revisiting matrices).
    std::ostringstream in_text;
    for (std::int64_t i = 0; i < stream_count; ++i) {
        const std::string spec =
            "stencil2d5:" +
            std::to_string(base + (i % (cold_count > 0 ? cold_count : 1)));
        std::string id = "s";
        id += std::to_string(i);
        in_text << predict_line(id, spec, threads) << "\n";
    }
    in_text << "{\"id\":\"end\",\"op\":\"shutdown\"}\n";
    std::istringstream in(in_text.str());
    std::ostringstream out, log;
    Timer stream_timer;
    if (server.run(in, out, log) != 0) {
        std::cerr << "FATAL: serve loop did not drain cleanly\n";
        return 1;
    }
    const double stream_seconds = stream_timer.seconds();

    const ServeStats stats = server.stats();
    const double cold_ms =
        cold_count > 0 ? 1e3 * cold_seconds /
                             static_cast<double>(cold_count)
                       : 0.0;
    const double hit_us =
        hit_count > 0
            ? 1e6 * hit_seconds / static_cast<double>(hit_count)
            : 0.0;
    const double req_per_sec =
        stream_seconds > 0
            ? static_cast<double>(stream_count) / stream_seconds
            : 0.0;
    const double speedup =
        hit_us > 0 ? 1e3 * cold_ms / hit_us : 0.0;

    TextTable table({"leg", "requests", "latency", "note"});
    table.add_row({"cold miss", std::to_string(cold_count),
                   fmt(cold_ms, 3) + " ms",
                   "load + fingerprint + model + insert"});
    table.add_row({"cache hit", std::to_string(hit_count),
                   fmt(hit_us, 1) + " us",
                   "fingerprint + LRU replay (x" + fmt(speedup, 0) +
                       " vs cold)"});
    table.add_row({"streamed", std::to_string(stream_count),
                   fmt(req_per_sec, 0) + " req/s",
                   "full loop, " + std::to_string(options.workers) +
                       " workers"});
    table.render(std::cout);
    std::cout << "cache: " << stats.cache.insertions << " insertions, "
              << stats.cache_hits << " hits, " << stats.rejected_overload
              << " overload rejections\n";

    BenchRecord record("serve", smoke);
    record.param("threads", threads);
    record.param("cold_requests", cold_count);
    record.param("hit_requests", hit_count);
    record.param("stream_requests", stream_count);
    record.param("size", base);
    record.param("workers", options.workers);
    record.metric("cold_miss_ms", "ms", cold_ms, cold_count);
    record.metric("cache_hit_us", "us", hit_us, hit_count);
    record.metric("stream_req_per_s", "1/s", req_per_sec, stream_count);
    return record.write(cli.get("out", "BENCH_serve.json")) ? 0 : 1;
}
