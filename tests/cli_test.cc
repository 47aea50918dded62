// In-process tests of the command-line interface (RunCli). Files go to
// gtest's temp dir.
#include "src/cli/cli.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/cluster_workspace.h"
#include "src/data/cluster_io.h"
#include "src/data/matrix_io.h"
#include "src/obs/metrics.h"

namespace deltaclus {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun RunCliArgs(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string Tmp(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(CliTest, NoArgumentsIsUsageError) {
  CliRun r = RunCliArgs({});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("deltaclus_cli"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  CliRun r = RunCliArgs({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("commands:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CliRun r = RunCliArgs({"frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagIsReported) {
  CliRun r = RunCliArgs({"generate", "--bogus=1", "--out", Tmp("x.csv")});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
  // The metrics snapshot has one format; the old selector is unknown.
  CliRun format = RunCliArgs({"mine", "--input", Tmp("x.csv"),
                              "--metrics-format=json"});
  EXPECT_EQ(format.exit_code, 1);
  EXPECT_NE(format.err.find("unknown flag --metrics-format"),
            std::string::npos)
      << format.err;
}

TEST(CliTest, GenerateToStdout) {
  CliRun r = RunCliArgs({"generate", "--rows=5", "--cols=4", "--clusters=1",
                  "--seed=3"});
  EXPECT_EQ(r.exit_code, 0);
  std::istringstream ss(r.out);
  DataMatrix m = ReadCsv(ss);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 4u);
}

TEST(CliTest, GenerateWritesFiles) {
  std::string matrix_path = Tmp("cli_gen.csv");
  std::string truth_path = Tmp("cli_truth.txt");
  CliRun r = RunCliArgs({"generate", "--rows=40", "--cols=12", "--clusters=2",
                  "--seed=5", "--out", matrix_path, "--truth-out",
                  truth_path});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  DataMatrix m = ReadCsvFile(matrix_path);
  EXPECT_EQ(m.rows(), 40u);
  std::vector<Cluster> truth = ReadClustersFile(truth_path, 40, 12);
  EXPECT_EQ(truth.size(), 2u);
}

TEST(CliTest, EndToEndMineStatsHoldout) {
  std::string matrix_path = Tmp("cli_e2e.csv");
  std::string truth_path = Tmp("cli_e2e_truth.txt");
  std::string found_path = Tmp("cli_e2e_found.txt");

  ASSERT_EQ(RunCliArgs({"generate", "--rows=150", "--cols=25", "--clusters=2",
                 "--noise=0.5", "--volume-mean=150", "--seed=9", "--out",
                 matrix_path, "--truth-out", truth_path})
                .exit_code,
            0);

  CliRun mine = RunCliArgs({"mine", "--input", matrix_path, "--k=8",
                     "--target-residue=1.0", "--min-rows=4", "--min-cols=3",
                     "--reseed=2", "--seed=11", "--out", found_path});
  ASSERT_EQ(mine.exit_code, 0) << mine.err;
  EXPECT_NE(mine.out.find("average residue"), std::string::npos);

  CliRun stats = RunCliArgs({"stats", "--input", matrix_path, "--clusters",
                      found_path, "--truth", truth_path});
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  EXPECT_NE(stats.out.find("vs truth"), std::string::npos);

  CliRun holdout = RunCliArgs({"holdout", "--input", matrix_path, "--clusters",
                        found_path, "--fraction=0.1", "--seed=13"});
  ASSERT_EQ(holdout.exit_code, 0) << holdout.err;
  EXPECT_NE(holdout.out.find("RMSE"), std::string::npos);
}

TEST(CliTest, MinePerfReportTableAndJson) {
  std::string matrix_path = Tmp("cli_perf.csv");
  std::string found_path = Tmp("cli_perf_found.txt");
  std::string report_path = Tmp("cli_perf_report.json");
  ASSERT_EQ(RunCliArgs({"generate", "--rows=60", "--cols=15", "--clusters=2",
                 "--seed=5", "--out", matrix_path})
                .exit_code,
            0);

  // Bare --perf-report prints the attribution table (and implies
  // metrics, no --metrics-out needed).
  CliRun table = RunCliArgs({"mine", "--input", matrix_path, "--k=2",
                      "--seed=7", "--perf-report", "--out", found_path});
  obs::MetricsRegistry::SetEnabled(false);
  ASSERT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("perf report: floc"), std::string::npos);
  EXPECT_NE(table.out.find("move_phase"), std::string::npos);
  EXPECT_NE(table.out.find("entries scanned"), std::string::npos);

  // --perf-report=PATH writes the JSON document instead.
  CliRun json = RunCliArgs({"mine", "--input", matrix_path, "--k=2",
                     "--seed=7", "--perf-report=" + report_path, "--out",
                     found_path});
  obs::MetricsRegistry::SetEnabled(false);
  ASSERT_EQ(json.exit_code, 0) << json.err;
  EXPECT_NE(json.out.find("wrote perf report"), std::string::npos);
  std::ifstream in(report_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(buf.str().find("\"algorithm\":\"floc\""), std::string::npos);

  // Unwritable path: clean error, exit 2.
  CliRun bad = RunCliArgs({"mine", "--input", matrix_path, "--k=2",
                    "--seed=7", "--perf-report=/nonexistent-dir/p.json",
                    "--out", found_path});
  obs::MetricsRegistry::SetEnabled(false);
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("--perf-report"), std::string::npos);
}

TEST(CliTest, ImputeFillsMissing) {
  std::string matrix_path = Tmp("cli_imp.csv");
  std::string clusters_path = Tmp("cli_imp_clusters.txt");
  std::string out_path = Tmp("cli_imp_out.csv");

  // A small perfect cluster with one missing entry.
  DataMatrix m(6, 5, 0.0);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      m.Set(i, j, 10.0 + 2.0 * i + 3.0 * j);
    }
  }
  m.SetMissing(1, 2);
  WriteCsvFile(m, matrix_path);
  WriteClustersFile(
      {Cluster::FromMembers(6, 5, {0, 1, 2, 3}, {0, 1, 2, 3})},
      clusters_path);

  CliRun r = RunCliArgs({"impute", "--input", matrix_path, "--clusters",
                  clusters_path, "--out", out_path});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  DataMatrix imputed = ReadCsvFile(out_path);
  ASSERT_TRUE(imputed.IsSpecified(1, 2));
  // Bases are means over *specified* entries, so one missing entry
  // biases them slightly (cf. Figure 3(b)); the prediction is close but
  // not exact.
  EXPECT_NEAR(imputed.Value(1, 2), 10.0 + 2.0 + 6.0, 0.3);
}

TEST(CliTest, MineMissingInputFails) {
  CliRun r = RunCliArgs({"mine", "--input", "/nonexistent.csv", "--k=2"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("error"), std::string::npos);
}

TEST(CliTest, BadOrderingRejected) {
  CliRun r = RunCliArgs({"mine", "--input", "/x.csv", "--ordering=sorted"});
  EXPECT_EQ(r.exit_code, 1);
}

TEST(CliTest, ThreadsFlagValidatedAndResultNeutral) {
  // Garbage and negative thread counts are rejected before any mining
  // starts, naming the flag; a valid count never changes the clusters.
  std::string matrix_path = Tmp("threads_flag.csv");
  ASSERT_EQ(RunCliArgs({"generate", "--rows=40", "--cols=10", "--clusters=1",
                        "--seed=3", "--out", matrix_path})
                .exit_code,
            0);

  for (const char* bad_value : {"--threads=bogus", "--threads=-2"}) {
    CliRun bad = RunCliArgs({"mine", "--input", matrix_path, "--k=2",
                             bad_value, "--out", Tmp("t_bad.txt")});
    EXPECT_EQ(bad.exit_code, 2) << bad_value;
    EXPECT_NE(bad.err.find("--threads"), std::string::npos) << bad.err;
    EXPECT_EQ(bad.out.find("mining"), std::string::npos) << bad.out;
  }

  CliRun one = RunCliArgs({"mine", "--input", matrix_path, "--k=2",
                           "--seed=5", "--threads", "1", "--out",
                           Tmp("t_one.txt")});
  ASSERT_EQ(one.exit_code, 0) << one.err;
  CliRun two = RunCliArgs({"mine", "--input", matrix_path, "--k=2",
                           "--seed=5", "--threads", "2", "--out",
                           Tmp("t_two.txt")});
  ASSERT_EQ(two.exit_code, 0) << two.err;
  std::ifstream a(Tmp("t_one.txt")), b(Tmp("t_two.txt"));
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(CliTest, MineRejectsEmptyAndNonFiniteInputs) {
  std::string empty_path = Tmp("empty.csv");
  { std::ofstream(empty_path).flush(); }
  CliRun empty = RunCliArgs({"mine", "--input", empty_path, "--k=3",
                             "--out", Tmp("empty_clusters.txt")});
  EXPECT_EQ(empty.exit_code, 2);
  EXPECT_NE(empty.err.find("empty matrix"), std::string::npos) << empty.err;

  std::string nan_path = Tmp("nan.csv");
  { std::ofstream(nan_path) << "1,2\n3,nan\n"; }
  CliRun nan = RunCliArgs({"mine", "--input", nan_path, "--k=1"});
  EXPECT_EQ(nan.exit_code, 2);
  EXPECT_NE(nan.err.find("line 2, column 2"), std::string::npos) << nan.err;
}

TEST(CliTest, MineRefusesClustersWiderThanAPane) {
  // On a matrix wider than a packed pane can address, mine bounds the
  // clusters' width at the pane limit (saying so) and mines instead of
  // refusing. Sparse column seeds and one iteration keep the run small.
  std::string wide_path = Tmp("wide.csv");
  WriteCsvFile(DataMatrix(2, kMaxPaneCols + 1, 1.0), wide_path);
  CliRun wide = RunCliArgs({"mine", "--input", wide_path, "--k=1",
                            "--col-probability=0.001", "--max-iterations=1",
                            "--out", Tmp("wide_clusters.txt")});
  EXPECT_EQ(wide.exit_code, 0) << wide.err;
  EXPECT_NE(wide.out.find("clusters bounded at " +
                          std::to_string(kMaxPaneCols) + " columns"),
            std::string::npos)
      << wide.out;
  EXPECT_NE(wide.out.find("FLOC:"), std::string::npos) << wide.out;
}

TEST(CliTest, ResumeRejectsCheckpointOfAnotherVersion) {
  std::string matrix_path = Tmp("version.csv");
  std::string checkpoint = Tmp("version.dcs");
  ASSERT_EQ(RunCliArgs({"generate", "--rows=80", "--cols=20", "--clusters=2",
                        "--seed=5", "--out", matrix_path})
                .exit_code,
            0);
  CliRun stopped = RunCliArgs({"mine", "--input", matrix_path, "--k=4",
                               "--seed=9", "--max-iterations=1",
                               "--checkpoint", checkpoint});
  ASSERT_EQ(stopped.exit_code, 0) << stopped.err;
  ASSERT_NE(stopped.out.find("wrote session checkpoint"), std::string::npos)
      << stopped.out;

  // Rewrite the header's format version (u32 at offset 4) to 4, the
  // previous layout (it carried Phase-1 seeding as its only phase wall).
  std::fstream f(checkpoint, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const char v4[4] = {4, 0, 0, 0};
  f.write(v4, sizeof(v4));
  f.close();

  CliRun resumed = RunCliArgs({"mine", "--input", matrix_path, "--k=4",
                               "--seed=9", "--resume", checkpoint});
  EXPECT_EQ(resumed.exit_code, 2);
  EXPECT_NE(resumed.err.find("version mismatch"), std::string::npos)
      << resumed.err;
}

TEST(CliTest, StatsRequiresFlags) {
  CliRun r = RunCliArgs({"stats"});
  EXPECT_EQ(r.exit_code, 1);
}

}  // namespace
}  // namespace deltaclus
