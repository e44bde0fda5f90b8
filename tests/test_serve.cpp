// Serve-daemon tests: the differential guarantee (served predictions are
// bit-identical to the one-shot CLI path), plan-cache hit/miss/eviction,
// quarantine fast-fail, per-request deadlines, admission backpressure, the
// corrupt-input corpus as live requests, and a >=1000-request fault soak.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/a64fx.hpp"
#include "core/batch.hpp"
#include "core/matrix_source.hpp"
#include "model/method_a.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/gen/stencil.hpp"
#include "util/fault.hpp"

namespace spmvcache {
namespace {

namespace fs = std::filesystem;

/// The serialized payload object of a rendered response line ("" if none).
std::string payload_of(const std::string& line) {
    const auto at = line.find("\"payload\":");
    if (at == std::string::npos) return "";
    // payload is the last member; strip the response's closing brace.
    return line.substr(at + 10, line.size() - (at + 10) - 1);
}

bool response_ok(const std::string& line) {
    return line.find("\"ok\":true") != std::string::npos;
}

std::string predict_line(const std::string& id, const std::string& spec,
                         std::int64_t threads = 2) {
    return "{\"id\":\"" + id + "\",\"op\":\"predict\",\"gen\":\"" + spec +
           "\",\"threads\":" + std::to_string(threads) + "}";
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, RejectsMalformedJsonWithTypedErrors) {
    EXPECT_EQ(parse_json("").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_json("{\"a\":}").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_json("{} trailing").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_json("\"unterminated").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_json("[1,2,]").code(), ErrorCode::ParseError);
    std::string deep;
    for (int i = 0; i < 100; ++i) deep += "[";
    EXPECT_EQ(parse_json(deep).code(), ErrorCode::ParseError);
}

TEST(ServeProtocol, ParsesARequestAndValidatesFields) {
    const auto ok = parse_request(
        "{\"id\":\"r1\",\"op\":\"predict\",\"gen\":\"banded:64\","
        "\"threads\":4,\"l2_ways\":[2,5],\"timeout\":1.5}");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().id, "r1");
    EXPECT_EQ(ok.value().op, RequestOp::Predict);
    EXPECT_EQ(ok.value().threads, 4);
    EXPECT_EQ(ok.value().l2_ways, (std::vector<std::uint32_t>{2, 5}));
    EXPECT_DOUBLE_EQ(ok.value().timeout_seconds, 1.5);

    EXPECT_FALSE(parse_request("{\"op\":\"predict\"}").ok());  // no source
    EXPECT_FALSE(parse_request("{\"op\":\"nope\",\"gen\":\"x:1\"}").ok());
    EXPECT_FALSE(
        parse_request(
            "{\"op\":\"predict\",\"gen\":\"x:1\",\"threads\":0}")
            .ok());
    // More threads than the served machine has cores.
    const auto too_many = parse_request(
        "{\"op\":\"predict\",\"gen\":\"x:1\",\"threads\":49}");
    ASSERT_FALSE(too_many.ok());
    EXPECT_EQ(too_many.code(), ErrorCode::ValidationError);
    EXPECT_FALSE(
        parse_request(
            "{\"op\":\"predict\",\"gen\":\"x:1\",\"l2_ways\":[99]}")
            .ok());
}

TEST(ServeProtocol, RejectsSampleRatesTheFilterCannotRepresent) {
    const auto with_approx = [](const std::string& approx) {
        return parse_request(
            "{\"op\":\"predict\",\"gen\":\"banded:64\",\"approx\":" +
            approx + "}");
    };
    const auto tiny = with_approx("1e-17");
    ASSERT_FALSE(tiny.ok());
    EXPECT_EQ(tiny.code(), ErrorCode::ValidationError);
    EXPECT_FALSE(with_approx("0").ok());
    ASSERT_TRUE(with_approx("0.01").ok());
    EXPECT_EQ(with_approx("0.01").value().sample_rate, 0.01);

    // Served, the request is refused instead of answering all zeros.
    Server server;
    const std::string line = server.handle_line(
        "{\"id\":\"z\",\"op\":\"predict\",\"gen\":\"randomcv:2000\","
        "\"approx\":1e-17}");
    EXPECT_FALSE(response_ok(line)) << line;
    EXPECT_NE(line.find("ValidationError"), std::string::npos) << line;
    EXPECT_NE(line.find("\"id\":\"z\""), std::string::npos) << line;
}

TEST(ServeProtocol, BoundedReadRejectsOversizedLinesAndStaysSynced) {
    std::istringstream in(std::string(64, 'x') + "\nshort\n");
    std::string line;
    const auto oversized = read_line_bounded(in, line, 16);
    ASSERT_FALSE(oversized.ok());
    EXPECT_EQ(oversized.code(), ErrorCode::ValidationError);
    const auto next = read_line_bounded(in, line, 16);
    ASSERT_TRUE(next.ok());
    EXPECT_TRUE(next.value());
    EXPECT_EQ(line, "short");
    const auto eof = read_line_bounded(in, line, 16);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(eof.value());
}

TEST(ServeProtocol, DoublesRoundTripBitIdentically) {
    for (const double v : {0.1, 1.0 / 3.0, 12345.6789e-7, -0.0, 2e300}) {
        const auto parsed = parse_json(json_double(v));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value().number, v);
    }
}

// -------------------------------------------------------------- fingerprint

TEST(ServeFingerprint, IdentifiesMatricesAndSeparatesSiblings) {
    const CsrMatrix a = gen::stencil_2d_5pt(24, 24);
    const CsrMatrix b = gen::stencil_2d_5pt(24, 24);
    const CsrMatrix c = gen::stencil_2d_5pt(25, 24);
    const MatrixFingerprint fa = fingerprint_matrix(a);
    EXPECT_EQ(fa, fingerprint_matrix(b));
    EXPECT_FALSE(fa == fingerprint_matrix(c));
    EXPECT_EQ(to_string(fa).size(), 32u);
    EXPECT_EQ(fa.rows, 576);
    EXPECT_EQ(fa.nnz, a.nnz());
}

// --------------------------------------------------------------- plan cache

TEST(ServePlanCache, LruEvictsColdestUnderByteCap) {
    PlanCache cache(100);
    const PlanKey a{1, 1}, b{2, 2}, c{3, 3};
    cache.put(a, std::string(40, 'a'));
    cache.put(b, std::string(40, 'b'));
    ASSERT_TRUE(cache.get(a).has_value());  // refresh a; b is now coldest
    cache.put(c, std::string(40, 'c'));     // 120 bytes > 100: evict b
    EXPECT_TRUE(cache.get(a).has_value());
    EXPECT_FALSE(cache.get(b).has_value());
    EXPECT_TRUE(cache.get(c).has_value());
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes, 100u);
}

TEST(ServePlanCache, OversizedPayloadAndZeroCapacityAreNeverCached) {
    PlanCache tiny(10);
    tiny.put(PlanKey{1, 1}, std::string(11, 'x'));
    EXPECT_FALSE(tiny.get(PlanKey{1, 1}).has_value());
    PlanCache disabled(0);
    disabled.put(PlanKey{1, 1}, "x");
    EXPECT_FALSE(disabled.get(PlanKey{1, 1}).has_value());
}

TEST(ServeQuarantine, FastFailsAfterStrikesAndClearsOnSuccess) {
    Quarantine q(2);
    const Error boom(ErrorCode::ParseError, "boom");
    EXPECT_FALSE(q.check(7).has_value());
    EXPECT_EQ(q.record_failure(7, boom), 1);
    EXPECT_FALSE(q.check(7).has_value());
    EXPECT_EQ(q.record_failure(7, boom), 2);
    const auto banned = q.check(7);
    ASSERT_TRUE(banned.has_value());
    EXPECT_EQ(banned->code, ErrorCode::ParseError);
    EXPECT_NE(banned->render().find("quarantined"), std::string::npos);
    q.record_success(7);
    EXPECT_FALSE(q.check(7).has_value());
    EXPECT_EQ(q.stats().fast_failed, 1u);
}

// ------------------------------------------------------------------- server

TEST(ServeServer, ServedPredictionBitIdenticalToOneShot) {
    Server server;
    const std::string line =
        server.handle_line(predict_line("d1", "randomcv:8192", 4));
    ASSERT_TRUE(response_ok(line)) << line;
    const auto parsed = parse_json(line);
    ASSERT_TRUE(parsed.ok());
    const Json* payload = parsed.value().find("payload");
    ASSERT_NE(payload, nullptr);

    // The exact one-shot path: same generator, same CLI-default options.
    const auto matrix = generated_matrix("randomcv:8192", 42);
    ASSERT_TRUE(matrix.ok());
    ModelOptions options;
    options.machine = a64fx_default();
    options.threads = 4;
    options.jobs = 1;
    options.l2_way_options = {2, 3, 4, 5, 6, 7};
    const ModelResult expected = run_method_a(matrix.value(), options);

    const Json* configs = payload->find("configs");
    ASSERT_NE(configs, nullptr);
    ASSERT_EQ(configs->items.size(), expected.configs.size());
    bool saw_nonzero = false;
    for (std::size_t i = 0; i < expected.configs.size(); ++i) {
        const Json* misses = configs->items[i].find("l2_misses");
        const Json* x_misses = configs->items[i].find("l2_x_misses");
        ASSERT_NE(misses, nullptr);
        ASSERT_NE(x_misses, nullptr);
        // Bit-identical: to_chars round-trip, compared with ==, not near.
        EXPECT_EQ(misses->number, expected.configs[i].l2_misses);
        EXPECT_EQ(x_misses->number, expected.configs[i].l2_x_misses);
        saw_nonzero = saw_nonzero || expected.configs[i].l2_misses > 0.0;
    }
    EXPECT_TRUE(saw_nonzero);  // the comparison must not be vacuous
    const Json* x_fraction = payload->find("x_traffic_fraction");
    ASSERT_NE(x_fraction, nullptr);
    EXPECT_EQ(x_fraction->number, expected.x_traffic_fraction);
}

TEST(ServeServer, ServedTuneBitIdenticalToOneShot) {
    Server server;
    const std::string line = server.handle_line(
        "{\"id\":\"t1\",\"op\":\"tune\",\"gen\":\"stencil2d5:400\","
        "\"threads\":4}");
    ASSERT_TRUE(response_ok(line)) << line;
    const auto served = parse_json(line);
    ASSERT_TRUE(served.ok());
    const Json* payload = served.value().find("payload");
    ASSERT_NE(payload, nullptr);

    // The one-shot tune options, stated here rather than taken from the
    // shared definition: the 11-entry way list and no L1 model.
    const auto matrix = generated_matrix("stencil2d5:400", 42);
    ASSERT_TRUE(matrix.ok());
    ModelOptions options;
    options.threads = 4;
    options.jobs = 1;
    options.l2_way_options = {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14};
    options.predict_l1 = false;
    const ModelResult result = run_method_a(matrix.value(), options);
    const std::string rendered = render_tune_payload(
        result, fingerprint_matrix(matrix.value()), 4);
    const auto expected = parse_json(rendered);
    ASSERT_TRUE(expected.ok()) << rendered;

    for (const char* key :
         {"best_l2_ways", "best_l2_misses", "predicted_reduction_percent"}) {
        const Json* got = payload->find(key);
        const Json* want = expected.value().find(key);
        ASSERT_NE(got, nullptr) << key;
        ASSERT_NE(want, nullptr) << key;
        // Bit-identical: the raw to_chars text, not a nearby double.
        EXPECT_EQ(got->text, want->text) << key;
    }
    const Json* configs = payload->find("configs");
    const Json* want_configs = expected.value().find("configs");
    ASSERT_NE(configs, nullptr);
    ASSERT_NE(want_configs, nullptr);
    ASSERT_EQ(configs->items.size(), 12u);  // unpartitioned + 11 way counts
    ASSERT_EQ(configs->items.size(), want_configs->items.size());
    for (std::size_t i = 0; i < configs->items.size(); ++i) {
        for (const char* key :
             {"l2_sector_ways", "l2_misses", "l2_x_misses"}) {
            const Json* got = configs->items[i].find(key);
            const Json* want = want_configs->items[i].find(key);
            ASSERT_NE(got, nullptr) << key;
            ASSERT_NE(want, nullptr) << key;
            EXPECT_EQ(got->text, want->text) << i << ": " << key;
        }
    }
    // The comparison must not be vacuous: the matrix streams past the
    // 8 MiB L2 while x fits, so partitioning helps.
    EXPECT_NE(payload->find("best_l2_ways")->text, "0");
}

TEST(ServeServer, CacheHitReplaysByteIdenticalPayload) {
    Server server;
    const std::string miss =
        server.handle_line(predict_line("m1", "stencil2d5:24"));
    const std::string hit =
        server.handle_line(predict_line("m2", "stencil2d5:24"));
    ASSERT_TRUE(response_ok(miss)) << miss;
    ASSERT_TRUE(response_ok(hit)) << hit;
    EXPECT_NE(miss.find("\"cache_hit\":false"), std::string::npos);
    EXPECT_NE(hit.find("\"cache_hit\":true"), std::string::npos);
    EXPECT_EQ(payload_of(miss), payload_of(hit));
    EXPECT_FALSE(payload_of(hit).empty());
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache.insertions, 1u);
}

TEST(ServeServer, DifferentOptionsDoNotShareAPlan) {
    Server server;
    const std::string t2 =
        server.handle_line(predict_line("a", "stencil2d5:24", 2));
    const std::string t4 =
        server.handle_line(predict_line("b", "stencil2d5:24", 4));
    ASSERT_TRUE(response_ok(t2));
    ASSERT_TRUE(response_ok(t4));
    EXPECT_NE(t4.find("\"cache_hit\":false"), std::string::npos);
    EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(ServeServer, QuarantineFastFailsARepeatedlyFailingSource) {
    ServeOptions options;
    options.quarantine_strikes = 2;
    options.max_retries = 0;
    Server server(options);
    const std::string request =
        "{\"id\":\"q\",\"op\":\"predict\",\"matrix\":\"/nonexistent/q.mtx\"}";
    EXPECT_FALSE(response_ok(server.handle_line(request)));
    EXPECT_FALSE(response_ok(server.handle_line(request)));
    const std::string banned = server.handle_line(request);
    EXPECT_FALSE(response_ok(banned));
    EXPECT_NE(banned.find("quarantined"), std::string::npos) << banned;
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.quarantine.fast_failed, 1u);
    EXPECT_GE(stats.quarantine.quarantined, 1u);
}

TEST(ServeServer, RefusedThreadCountsEarnNoQuarantineStrike) {
    // Requests the protocol refuses never reach the model, so however
    // many arrive, they must not quarantine the matrix they name.
    Server server;
    for (int i = 0; i < 3; ++i) {
        const std::string refused =
            server.handle_line(predict_line("t49", "stencil2d5:12", 49));
        EXPECT_FALSE(response_ok(refused)) << refused;
        EXPECT_NE(refused.find("ValidationError"), std::string::npos)
            << refused;
    }
    const std::string line =
        server.handle_line(predict_line("t48", "stencil2d5:12", 48));
    EXPECT_TRUE(response_ok(line)) << line;
}

TEST(ServeServer, DeadlineExpiryAnswersTimeoutError) {
    ServeOptions options;
    options.execute_delay_seconds = 0.25;
    options.max_retries = 0;
    Server server(options);
    const std::string line = server.handle_line(
        "{\"id\":\"t\",\"op\":\"predict\",\"gen\":\"stencil2d5:16\","
        "\"timeout\":0.05}");
    EXPECT_FALSE(response_ok(line));
    EXPECT_NE(line.find("\"code\":\"TimeoutError\""), std::string::npos)
        << line;
    EXPECT_EQ(server.stats().timeouts, 1u);
    // Let the abandoned attempt finish before the process exits.
    std::this_thread::sleep_for(std::chrono::milliseconds(350));
}

TEST(ServeServer, BackpressureRejectsBeyondQueueCapacity) {
    ServeOptions options;
    options.workers = 1;
    options.queue_capacity = 1;
    options.execute_delay_seconds = 0.15;
    options.max_retries = 0;
    Server server(options);
    std::ostringstream in_text;
    for (int i = 0; i < 4; ++i) {
        std::string id = "p";
        id += std::to_string(i);
        in_text << predict_line(id, "stencil2d5:16") << "\n";
    }
    in_text << "{\"id\":\"h\",\"op\":\"health\"}\n";
    in_text << "{\"id\":\"end\",\"op\":\"shutdown\"}\n";
    std::istringstream in(in_text.str());
    std::ostringstream out, log;
    EXPECT_EQ(server.run(in, out, log), kExitOk);

    int ok_predicts = 0, overloaded = 0;
    bool health_ok = false, shutdown_ok = false;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("\"id\":\"h\"") != std::string::npos)
            health_ok = response_ok(line);
        else if (line.find("\"id\":\"end\"") != std::string::npos)
            shutdown_ok = response_ok(line);
        else if (line.find("\"code\":\"OverloadedError\"") !=
                 std::string::npos)
            ++overloaded;
        else if (response_ok(line))
            ++ok_predicts;
    }
    // One slot: the first request executes, the other three bounce, and
    // health still answers from the loop thread while the pool is full.
    EXPECT_EQ(ok_predicts, 1);
    EXPECT_EQ(overloaded, 3);
    EXPECT_TRUE(health_ok);
    EXPECT_TRUE(shutdown_ok);
    EXPECT_EQ(server.stats().rejected_overload, 3u);
}

TEST(ServeServer, CorruptCorpusRequestsNeverKillTheDaemon) {
    ServeOptions options;
    options.max_retries = 0;
    Server server(options);
    const fs::path corpus = fs::path(SPMVCACHE_TEST_DATA_DIR) / "corrupt";
    ASSERT_TRUE(fs::exists(corpus));
    int corrupt_files = 0;
    for (const auto& entry : fs::directory_iterator(corpus)) {
        ++corrupt_files;
        const std::string line = server.handle_line(
            "{\"id\":\"c\",\"op\":\"predict\",\"matrix\":\"" +
            entry.path().string() + "\",\"strict\":true}");
        EXPECT_FALSE(response_ok(line)) << entry.path();
        EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
        // The daemon answers health after every poisoned input.
        EXPECT_TRUE(response_ok(
            server.handle_line("{\"id\":\"h\",\"op\":\"health\"}")));
    }
    EXPECT_GE(corrupt_files, 5);
    EXPECT_EQ(server.stats().ok,
              static_cast<std::uint64_t>(corrupt_files));  // the healths
    EXPECT_EQ(server.stats().failed,
              static_cast<std::uint64_t>(corrupt_files));
}

TEST(ServeServer, EofDrainsCleanlyWithoutShutdownRequest) {
    Server server;
    std::istringstream in(predict_line("p", "stencil2d5:16") + "\n");
    std::ostringstream out, log;
    EXPECT_EQ(server.run(in, out, log), kExitOk);
    EXPECT_TRUE(response_ok(out.str()));
    EXPECT_NE(log.str().find("draining (eof)"), std::string::npos);
    EXPECT_NE(log.str().find("final stats:"), std::string::npos);
}

TEST(ServeServer, StatsSnapshotsStayConsistentWhileServing) {
    // stats() promises a mutually consistent snapshot: the daemon
    // counters come from one stats_mutex_ acquisition and each subsystem
    // (plan cache, source cache, quarantine) contributes a single-lock
    // snapshot of its own. Hammer stats() from reader threads while
    // writer threads serve requests, and check the cross-counter
    // invariants on every observed snapshot — under TSan this also
    // proves the lock discipline the annotations claim.
    ServeOptions options;
    options.workers = 2;
    Server server(options);

    constexpr int kWriters = 4;
    constexpr int kRequestsPerWriter = 30;
    std::atomic<bool> done{false};
    std::atomic<int> violations{0};
    std::atomic<int> snapshots{0};

    auto reader = [&] {
        std::uint64_t last_requests = 0;
        std::uint64_t last_source_hits = 0;
        std::uint64_t last_source_loads = 0;
        while (!done.load(std::memory_order_acquire)) {
            const ServeStats s = server.stats();
            snapshots.fetch_add(1, std::memory_order_relaxed);
            // Dispatch counters are updated under one lock per response.
            if (s.requests != s.ok + s.failed) violations.fetch_add(1);
            // The plan cache snapshots entries and counters together.
            if (s.cache.insertions < s.cache.evictions ||
                s.cache.entries !=
                    s.cache.insertions - s.cache.evictions)
                violations.fetch_add(1);
            if (s.cache.bytes > s.cache.capacity_bytes)
                violations.fetch_add(1);
            // Monotonicity across snapshots (counters never run back).
            if (s.requests < last_requests) violations.fetch_add(1);
            if (s.source_hits < last_source_hits) violations.fetch_add(1);
            if (s.source_loads < last_source_loads)
                violations.fetch_add(1);
            last_requests = s.requests;
            last_source_hits = s.source_hits;
            last_source_loads = s.source_loads;
        }
    };

    auto writer = [&](int w) {
        for (int i = 0; i < kRequestsPerWriter; ++i) {
            const std::string spec =
                (i % 2 == 0) ? "stencil2d5:16" : "banded:128";
            std::string id = "w";
            id += std::to_string(w) + "n" + std::to_string(i);
            const std::string line =
                server.handle_line(predict_line(id, spec));
            EXPECT_TRUE(response_ok(line)) << line;
        }
    };

    std::vector<std::thread> threads;
    threads.emplace_back(reader);
    threads.emplace_back(reader);
    for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
    for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
    done.store(true, std::memory_order_release);
    threads[0].join();
    threads[1].join();

    EXPECT_EQ(violations.load(), 0);
    EXPECT_GT(snapshots.load(), 0);
    const ServeStats final_stats = server.stats();
    EXPECT_EQ(final_stats.requests,
              static_cast<std::uint64_t>(kWriters * kRequestsPerWriter));
    EXPECT_EQ(final_stats.ok + final_stats.failed, final_stats.requests);
    // Two distinct generated sources: exactly two loads, the rest hits.
    EXPECT_EQ(final_stats.source_loads, 2u);
    EXPECT_EQ(final_stats.source_hits,
              final_stats.requests - final_stats.source_loads);
}

// --------------------------------------------------------------------- soak

TEST(ServeSoak, ThousandMixedRequestsUnderInjectedFaults) {
    const std::vector<std::string> specs = {"stencil2d5:24", "banded:512",
                                            "randomcv:256"};
    // Reference payloads from a clean, fault-free daemon; the differential
    // test above ties these to the one-shot path.
    Server reference;
    std::vector<std::string> ref_payload;
    for (const auto& spec : specs) {
        const std::string line =
            reference.handle_line(predict_line("ref", spec));
        ASSERT_TRUE(response_ok(line)) << line;
        ref_payload.push_back(payload_of(line));
        ASSERT_FALSE(ref_payload.back().empty());
    }

    const fs::path corpus = fs::path(SPMVCACHE_TEST_DATA_DIR) / "corrupt";
    std::vector<std::string> corrupt;
    for (const auto& entry : fs::directory_iterator(corpus))
        corrupt.push_back(entry.path().string());
    ASSERT_FALSE(corrupt.empty());

    std::ostringstream in_text;
    int total = 0;
    for (int i = 0; i < 1080; ++i, ++total) {
        const std::string n = std::to_string(i);
        switch (i % 12) {
            case 3:
                in_text << "{\"id\":\"h" << n << "\",\"op\":\"health\"}\n";
                break;
            case 5:
                in_text << "{\"id\":\"c" << n
                        << "\",\"op\":\"predict\",\"matrix\":\""
                        << corrupt[static_cast<std::size_t>(i) %
                                   corrupt.size()]
                        << "\",\"strict\":true}\n";
                break;
            case 7: in_text << "this is not json " << n << "\n"; break;
            case 9:
                // Induced timeout: the budget expires long before the
                // model can finish; the attempt is abandoned.
                in_text << "{\"id\":\"t" << n
                        << "\",\"op\":\"predict\",\"gen\":\"stencil2d5:48\","
                           "\"threads\":2,\"timeout\":1e-6}\n";
                break;
            case 11:
                in_text << "{\"id\":\"s" << n
                        << "\",\"op\":\"stats\",\"gen\":\"" << specs[0]
                        << "\"}\n";
                break;
            default: {
                const std::size_t which =
                    static_cast<std::size_t>(i) % specs.size();
                std::string id = "p";
                id += std::to_string(which) + "x" + n;
                in_text << predict_line(id, specs[which]) << "\n";
                break;
            }
        }
    }
    in_text << "{\"id\":\"end\",\"op\":\"shutdown\"}\n";

    // Probabilistic, non-once faults across all three serve points; the
    // strike limit is pushed out of reach so injected failures cannot
    // quarantine the healthy generators mid-soak.
    fault::arm("serve.execute",
               {.probability = 0.05, .seed = 7, .once = false});
    fault::arm("serve.accept",
               {.probability = 0.02, .seed = 11, .once = false});
    fault::arm("serve.cache",
               {.probability = 0.10, .seed = 13, .once = false});
    ServeOptions options;
    options.workers = 4;
    // The whole stream is fed in one burst, far faster than any real
    // client; a large queue lets the soak exercise execution rather than
    // admission (the backpressure test covers rejection).
    options.queue_capacity = 4096;
    options.quarantine_strikes = 1000000;
    Server server(options);
    std::istringstream in(in_text.str());
    std::ostringstream out, log;
    const int exit_code = server.run(in, out, log);
    fault::disarm_all();
    EXPECT_EQ(exit_code, kExitOk);

    int responses = 0, ok_predicts = 0, payload_mismatches = 0;
    int health_failures = 0;
    bool shutdown_ok = false;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        ++responses;
        const auto id_at = line.find("\"id\":\"");
        ASSERT_NE(id_at, std::string::npos) << line;
        const char tag = line[id_at + 6];
        if (tag == 'h') {
            if (!response_ok(line)) ++health_failures;
        } else if (tag == 'p' && response_ok(line)) {
            ++ok_predicts;
            const std::size_t which =
                static_cast<std::size_t>(line[id_at + 7] - '0');
            ASSERT_LT(which, ref_payload.size()) << line;
            if (payload_of(line) != ref_payload[which])
                ++payload_mismatches;
        } else if (line.find("\"id\":\"end\"") != std::string::npos) {
            shutdown_ok = response_ok(line);
        }
    }
    // Every line got an answer, plus the shutdown acknowledgement.
    EXPECT_EQ(responses, total + 1);
    // Every served prediction is bit-identical to the fault-free payload.
    EXPECT_EQ(payload_mismatches, 0);
    EXPECT_GT(ok_predicts, 300);
    EXPECT_EQ(health_failures, 0);
    EXPECT_TRUE(shutdown_ok);

    const ServeStats stats = server.stats();
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_GT(stats.cache_hits, 0u);
    EXPECT_GT(stats.parse_errors, 0u);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_NE(log.str().find("draining (shutdown)"), std::string::npos);
    // Abandoned deadline attempts may still be finishing on detached
    // threads; give them a beat before the process tears down.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
}

}  // namespace
}  // namespace spmvcache
