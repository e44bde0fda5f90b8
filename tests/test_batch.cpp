// Batch-runner tests: per-matrix isolation (valid matrices keep modelling
// while corrupt ones are recorded), retry-once-on-transient semantics,
// failure reports, and standardized exit codes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>

#include "core/batch.hpp"
#include "core/deadline.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/format.hpp"

namespace spmvcache {
namespace {

namespace fs = std::filesystem;

class BatchTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(testing::TempDir()) /
               ("spmv_batch_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }

    void TearDown() override {
        fault::disarm_all();
        fs::remove_all(dir_);
    }

    std::string add_valid(const std::string& name, std::int64_t side = 12) {
        const auto path = dir_ / (name + ".mtx");
        write_matrix_market_file(path.string(),
                                 gen::stencil_2d_5pt(side, side));
        return path.string();
    }

    std::string add_corrupt(const std::string& name,
                            const std::string& content) {
        const auto path = dir_ / (name + ".mtx");
        std::ofstream out(path);
        out << content;
        return path.string();
    }

    BatchOptions fast_options() const {
        BatchOptions options;
        options.threads = 2;
        return options;
    }

    fs::path dir_;
};

const BatchItemResult& find_item(const BatchReport& report,
                                 const std::string& name) {
    for (const auto& item : report.items)
        if (item.name == name) return item;
    static const BatchItemResult missing;
    ADD_FAILURE() << "no item named " << name;
    return missing;
}

TEST_F(BatchTest, AllValidMatricesExitZero) {
    add_valid("a");
    add_valid("b");
    const auto paths = collect_matrix_paths(dir_.string());
    ASSERT_TRUE(paths.ok());
    const BatchReport report = run_batch(paths.value(), fast_options());
    EXPECT_EQ(report.items.size(), 2u);
    EXPECT_EQ(report.failed(), 0u);
    EXPECT_EQ(report.exit_code(), kExitOk);
    for (const auto& item : report.items) {
        EXPECT_TRUE(item.ok);
        EXPECT_EQ(item.stage, BatchStage::Model);
        EXPECT_GT(item.nnz, 0);
    }
}

TEST_F(BatchTest, CorruptMatricesAreIsolatedAndRecorded) {
    add_valid("good1");
    add_valid("good2");
    add_valid("good3");
    add_corrupt("bad_header", "%%NotMatrixMarket nope\n1 1 1\n");
    add_corrupt("bad_truncated",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 4\n1 1 1.0\n");
    add_corrupt("bad_index",
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n5 5 1.0\n");

    const auto paths = collect_matrix_paths(dir_.string());
    ASSERT_TRUE(paths.ok());
    const BatchReport report = run_batch(paths.value(), fast_options());

    EXPECT_EQ(report.items.size(), 6u);
    EXPECT_EQ(report.failed(), 3u);
    EXPECT_EQ(report.succeeded(), 3u);
    EXPECT_EQ(report.exit_code(), kExitSomeFailed);

    // The valid matrices were fully modelled despite the corrupt ones.
    for (const auto* name : {"good1", "good2", "good3"}) {
        const auto& item = find_item(report, name);
        EXPECT_TRUE(item.ok) << name;
        EXPECT_EQ(item.stage, BatchStage::Model);
    }
    // Each corrupt matrix names its stage and a typed code.
    EXPECT_EQ(find_item(report, "bad_header").stage, BatchStage::Parse);
    EXPECT_EQ(find_item(report, "bad_header").code, ErrorCode::ParseError);
    EXPECT_EQ(find_item(report, "bad_truncated").code,
              ErrorCode::ParseError);
    EXPECT_EQ(find_item(report, "bad_index").code,
              ErrorCode::ValidationError);
    for (const auto* name : {"bad_header", "bad_truncated", "bad_index"})
        EXPECT_FALSE(find_item(report, name).message.empty()) << name;
}

TEST_F(BatchTest, MissingFileIsResourceErrorNotCrash) {
    const BatchReport report =
        run_batch({(dir_ / "nope.mtx").string()}, fast_options());
    ASSERT_EQ(report.items.size(), 1u);
    EXPECT_FALSE(report.items[0].ok);
    EXPECT_EQ(report.items[0].code, ErrorCode::ResourceError);
    EXPECT_TRUE(report.items[0].retried);  // transient: retried once
    EXPECT_EQ(report.exit_code(), kExitSomeFailed);
}

TEST_F(BatchTest, TransientFaultIsRetriedOnceAndSucceeds) {
    add_valid("flaky");
    // One-shot fault: the first attempt fails, the retry goes through.
    fault::arm("batch.item", {.fail_after = 0, .once = true});
    const auto paths = collect_matrix_paths(dir_.string());
    ASSERT_TRUE(paths.ok());
    const BatchReport report = run_batch(paths.value(), fast_options());
    ASSERT_EQ(report.items.size(), 1u);
    EXPECT_TRUE(report.items[0].ok);
    EXPECT_TRUE(report.items[0].retried);
    EXPECT_EQ(report.exit_code(), kExitOk);
}

TEST_F(BatchTest, RetryDisabledRecordsInjectedFault) {
    add_valid("flaky");
    fault::arm("batch.item", {.fail_after = 0, .once = true});
    BatchOptions options = fast_options();
    options.retry_transient = false;
    const BatchReport report =
        run_batch(collect_matrix_paths(dir_.string()).value(), options);
    ASSERT_EQ(report.items.size(), 1u);
    EXPECT_FALSE(report.items[0].ok);
    EXPECT_EQ(report.items[0].code, ErrorCode::FaultInjected);
    EXPECT_FALSE(report.items[0].retried);
    EXPECT_EQ(report.exit_code(), kExitSomeFailed);
}

TEST_F(BatchTest, TimeoutRecordsTimeoutError) {
    // A FIFO with no writer blocks the parser's open() indefinitely — the
    // canonical stuck-I/O case the per-matrix budget exists for. The
    // abandoned worker stays blocked until process exit, by design.
    const auto fifo = dir_ / "stuck.mtx";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    BatchOptions options = fast_options();
    options.timeout_seconds = 0.05;
    const BatchReport report = run_batch({fifo.string()}, options);
    ASSERT_EQ(report.items.size(), 1u);
    EXPECT_FALSE(report.items[0].ok);
    EXPECT_EQ(report.items[0].code, ErrorCode::TimeoutError);
    EXPECT_FALSE(report.items[0].retried);  // timeouts are not transient
    EXPECT_EQ(report.exit_code(), kExitSomeFailed);
}

TEST(ExitCode, EscapedExceptionIsAFailureUnlessAFlagWasUnreadable) {
    EXPECT_EQ(exit_code_for_exception(ContractViolation("precondition")),
              kExitSomeFailed);
    EXPECT_EQ(exit_code_for_exception(std::bad_alloc()), kExitSomeFailed);
    EXPECT_EQ(exit_code_for_exception(std::runtime_error("unexpected")),
              kExitSomeFailed);
    EXPECT_EQ(exit_code_for_exception(StatusError(
                  Error(ErrorCode::ValidationError, "does not fit"))),
              kExitSomeFailed);
    // What CliParser throws for `--threads abc`.
    EXPECT_EQ(exit_code_for_exception(StatusError(
                  Error(ErrorCode::ParseError, "not an integer: 'abc'"))),
              kExitUsage);
}

TEST(Deadline, BudgetBeyondTheClockIsNoBudget) {
    // inf and 1e300 s overflowed the clock's ticks and expired at once;
    // NaN, like <= 0, means no budget.
    for (const double seconds : {std::numeric_limits<double>::infinity(),
                                 1e300, std::nan("")}) {
        const Result<int> r =
            run_with_deadline<int>(seconds, [] { return Result<int>(7); });
        ASSERT_TRUE(r.ok()) << seconds << ": " << r.error().render();
        EXPECT_EQ(r.value(), 7);
    }
}

TEST_F(BatchTest, ModelStageFaultIsIsolatedPerMatrix) {
    add_valid("m1");
    add_valid("m2");
    add_valid("m3");
    // The reuse engine throws once, mid-model, on whichever matrix hits the
    // armed access count first; the others must still complete.
    fault::arm("reuse.access", {.fail_after = 10, .once = true});
    BatchOptions options = fast_options();
    options.retry_transient = false;
    const BatchReport report =
        run_batch(collect_matrix_paths(dir_.string()).value(), options);
    EXPECT_EQ(report.items.size(), 3u);
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_EQ(report.succeeded(), 2u);
    const auto& failed = *std::find_if(
        report.items.begin(), report.items.end(),
        [](const BatchItemResult& i) { return !i.ok; });
    EXPECT_EQ(failed.stage, BatchStage::Model);
    EXPECT_EQ(failed.code, ErrorCode::FaultInjected);
}

TEST_F(BatchTest, CancelCheckDrainsRemainingMatricesAsCancelled) {
    add_valid("a");
    add_valid("b");
    add_valid("c");
    BatchOptions options = fast_options();
    // Fires after the first matrix: exactly what the CLI's SIGINT/SIGTERM
    // drain handler feeds through cancel_check.
    int polls = 0;
    options.cancel_check = [&polls] { return ++polls > 1; };
    const BatchReport report =
        run_batch(collect_matrix_paths(dir_.string()).value(), options);
    ASSERT_EQ(report.items.size(), 3u);
    EXPECT_TRUE(report.items[0].ok);
    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_FALSE(report.items[i].ok);
        EXPECT_EQ(report.items[i].code, ErrorCode::Cancelled);
        EXPECT_NE(report.items[i].message.find("drained"),
                  std::string::npos);
    }
    EXPECT_EQ(report.exit_code(), kExitSomeFailed);
}

TEST_F(BatchTest, StatsOnlyModeSkipsModelStage) {
    add_valid("quick");
    BatchOptions options = fast_options();
    options.run_model = false;
    const BatchReport report =
        run_batch(collect_matrix_paths(dir_.string()).value(), options);
    ASSERT_EQ(report.items.size(), 1u);
    EXPECT_TRUE(report.items[0].ok);
    EXPECT_EQ(report.items[0].stage, BatchStage::Stats);
    EXPECT_EQ(report.items[0].best_l2_ways, 0u);
}

TEST_F(BatchTest, StrictParseFlagReachesTheParser) {
    add_corrupt("dupes",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 3\n1 1 1.0\n2 2 2.0\n1 1 5.0\n");
    BatchOptions lenient = fast_options();
    BatchOptions strict = fast_options();
    strict.strict_parse = true;
    const auto paths = collect_matrix_paths(dir_.string()).value();
    EXPECT_EQ(run_batch(paths, lenient).exit_code(), kExitOk);
    const BatchReport report = run_batch(paths, strict);
    EXPECT_EQ(report.exit_code(), kExitSomeFailed);
    EXPECT_EQ(report.items[0].code, ErrorCode::ValidationError);
}

TEST_F(BatchTest, CsvReportNamesFailuresWithStageAndCode) {
    add_valid("fine");
    add_corrupt("broken",
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n9 9 1.0\n");
    const BatchReport report = run_batch(
        collect_matrix_paths(dir_.string()).value(), fast_options());
    std::ostringstream csv;
    write_batch_report_csv(csv, report);
    const std::string text = csv.str();
    EXPECT_NE(text.find("name,path,status,stage,error_code"),
              std::string::npos);
    EXPECT_NE(text.find("broken"), std::string::npos);
    EXPECT_NE(text.find("ValidationError"), std::string::npos);
    EXPECT_NE(text.find("parse"), std::string::npos);
    EXPECT_NE(text.find("fine"), std::string::npos);
    EXPECT_NE(text.find(",ok,"), std::string::npos);
}

TEST_F(BatchTest, CsvReportQuotesNamesAndPathsWithCommasAndQuotes) {
    add_valid("a,\"b\"");
    const BatchReport report = run_batch(
        collect_matrix_paths(dir_.string()).value(), fast_options());
    std::ostringstream csv;
    write_batch_report_csv(csv, report);
    std::istringstream lines(csv.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(lines, header) && std::getline(lines, row));
    // Each field is quoted whole, with its quotes doubled.
    const std::string want = "\"a,\"\"b\"\"\",\"" + dir_.string() +
                             "/a,\"\"b\"\".mtx\",ok,";
    EXPECT_EQ(row.substr(0, want.size()), want) << row;
}

TEST_F(BatchTest, JsonReportIsWellFormedEnoughToGrep) {
    add_corrupt("broken", "not a matrix at all\n");
    const BatchReport report = run_batch(
        collect_matrix_paths(dir_.string()).value(), fast_options());
    std::ostringstream json;
    write_batch_report_json(json, report);
    const std::string text = json.str();
    EXPECT_NE(text.find("\"failed\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"exit_code\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"error_code\": \"ParseError\""),
              std::string::npos);
    // Quotes inside messages must be escaped.
    EXPECT_EQ(text.find("\"message\": \"\""), std::string::npos);
}

TEST_F(BatchTest, ReportsWriteNumbersThatReadBackExactly) {
    // At the stream's default six significant digits these would read
    // back as 0.123457, 27261600 (written 2.72616e+07), 0.333333 and
    // 0.142857.
    BatchReport report;
    BatchItemResult item;
    item.name = "big";
    item.ok = true;
    item.seconds = 0.1234567891;
    item.best_l2_misses = 27261630.0;
    item.model_seconds = 1.0 / 3.0;
    item.model_sample_rate = 1.0 / 7.0;
    report.items.push_back(item);
    const auto expect_exact = [&item](const auto& number) {
        EXPECT_EQ(number("seconds"), item.seconds);
        EXPECT_EQ(number("best_l2_misses"), item.best_l2_misses);
        EXPECT_EQ(number("model_seconds"), item.model_seconds);
        EXPECT_EQ(number("model_sample_rate"), item.model_sample_rate);
    };

    std::ostringstream json;
    write_batch_report_json(json, report);
    const std::string text = json.str();
    expect_exact([&text](const std::string& key) {
        const std::string field = "\"" + key + "\": ";
        const std::size_t at = text.find(field);
        EXPECT_NE(at, std::string::npos) << key;
        return at == std::string::npos
                   ? 0.0
                   : std::stod(text.substr(at + field.size()));
    });

    std::ostringstream csv;
    write_batch_report_csv(csv, report);
    std::istringstream lines(csv.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(lines, header) && std::getline(lines, row));
    const std::vector<std::string> names = split(header, ',');
    const std::vector<std::string> cells = split(row, ',');
    ASSERT_EQ(names.size(), cells.size()) << row;
    expect_exact([&](const std::string& key) {
        const auto it = std::find(names.begin(), names.end(), key);
        EXPECT_NE(it, names.end()) << key;
        return it == names.end()
                   ? 0.0
                   : std::stod(cells[static_cast<std::size_t>(
                         it - names.begin())]);
    });
}

TEST_F(BatchTest, CollectPathsHandlesDirListAndSingle) {
    const std::string a = add_valid("a");
    const std::string b = add_valid("b");

    const auto from_dir = collect_matrix_paths(dir_.string());
    ASSERT_TRUE(from_dir.ok());
    EXPECT_EQ(from_dir.value().size(), 2u);
    EXPECT_LT(from_dir.value()[0], from_dir.value()[1]);  // sorted

    const auto single = collect_matrix_paths(a);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single.value(), std::vector<std::string>{a});

    const auto list_path = dir_ / "matrices.txt";
    {
        std::ofstream out(list_path);
        out << "# comment\n" << a << "\n\n" << b << "\n";
    }
    const auto from_list = collect_matrix_paths(list_path.string());
    ASSERT_TRUE(from_list.ok());
    EXPECT_EQ(from_list.value(), (std::vector<std::string>{a, b}));

    const auto missing = collect_matrix_paths(
        (dir_ / "no_such_thing").string());
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.code(), ErrorCode::ResourceError);
}

}  // namespace
}  // namespace spmvcache
