// Tests for the flags parser, the flag tables and the machine report
// renderer.
#include <gtest/gtest.h>

#include <sstream>

#include "common/flags.hpp"
#include "workload/report.hpp"
#include "workload/scenarios.hpp"

namespace alpu {
namespace {

common::Flags parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  auto f = common::Flags::parse(static_cast<int>(args.size()),
                                const_cast<char**>(args.data()));
  EXPECT_TRUE(f.has_value());
  return *f;
}

TEST(Flags, EqualsForm) {
  const auto f = parse({"--length=42", "--fraction=0.5"});
  EXPECT_EQ(f.get_int("length", 0), 42);
  EXPECT_DOUBLE_EQ(f.get_double("fraction", 0), 0.5);
}

TEST(Flags, SpaceForm) {
  const auto f = parse({"--mode", "alpu128", "--length", "7"});
  EXPECT_EQ(f.get("mode", ""), "alpu128");
  EXPECT_EQ(f.get_int("length", 0), 7);
}

TEST(Flags, BooleanForm) {
  // Positionals come first (the tools' convention): space-form parsing
  // is greedy, so a word after a bare flag would bind as its value.
  const auto f = parse({"scenario", "--report", "--verbose"});
  EXPECT_TRUE(f.get_bool("report"));
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("missing"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "scenario");
}

TEST(Flags, GreedySpaceFormBindsFollowingWord) {
  const auto f = parse({"--report", "scenario"});
  EXPECT_EQ(f.get("report", ""), "scenario");
  EXPECT_TRUE(f.positional().empty());
}

TEST(Flags, PositionalBeforeAndAfterFlags) {
  const auto f = parse({"run", "--x=1", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, FallbacksApply) {
  const auto f = parse({});
  EXPECT_EQ(f.get("mode", "baseline"), "baseline");
  EXPECT_EQ(f.get_int("n", 5), 5);
  EXPECT_FALSE(f.has("anything"));
}

TEST(Flags, ExplicitFalse) {
  const auto f = parse({"--report=false", "--x=0"});
  EXPECT_FALSE(f.get_bool("report", true));
  EXPECT_FALSE(f.get_bool("x", true));
}

// ---- flag tables -------------------------------------------------------------

using enum common::FlagKind;

/// One flag of each kind and range shape, behind one positional.
const common::FlagTable kTable{
    .command = "prog",
    .flags = {{.name = "length", .kind = kInt, .fallback = "0", .min = 0,
               .help = "queue length"},
              {.name = "fraction", .kind = kReal, .fallback = "1", .min = 0,
               .max = 1, .help = "share of the queue walked"},
              {.name = "drop", .kind = kReal, .fallback = "0", .min = 0,
               .max = 1, .max_open = true, .help = "drop rate"},
              {.name = "mode", .kind = kWord, .fallback = "baseline",
               .choices = {"baseline", "alpu128"}, .help = "the NIC"},
              {.name = "report", .help = "dump the machine"},
              {.name = "seed", .kind = kInt, .help = "no default"}},
    .positionals = 1};

std::string problem(std::vector<const char*> args) {
  args.insert(args.begin(), "run");
  return kTable.problem(parse(args));
}

common::Args checked(std::vector<const char*> args) {
  args.insert(args.begin(), "run");
  const std::optional<common::Args> out = kTable.check(parse(args));
  EXPECT_TRUE(out.has_value());
  return *out;
}

TEST(FlagTable, ReadsGivenValuesAndDefaults) {
  const common::Args given = checked(
      {"--length", "5", "--fraction=0.25", "--mode", "alpu128", "--report",
       "--seed", "7"});
  EXPECT_EQ(given.integer("length"), 5);
  EXPECT_DOUBLE_EQ(given.real("fraction"), 0.25);
  EXPECT_EQ(given.word("mode"), "alpu128");
  EXPECT_EQ(given.choice("mode"), 1u);
  EXPECT_TRUE(given.on("report"));
  unsigned seed = 0;
  EXPECT_TRUE(given.set("seed", &seed, 10u));
  EXPECT_EQ(seed, 70u);

  const common::Args defaults = checked({});
  EXPECT_EQ(defaults.integer("length"), 0);
  EXPECT_DOUBLE_EQ(defaults.real("fraction"), 1.0);
  EXPECT_EQ(defaults.choice("mode"), 0u);
  EXPECT_FALSE(defaults.on("report"));
  EXPECT_FALSE(defaults.given("length"));
  EXPECT_FALSE(defaults.set("seed", &seed));
  EXPECT_EQ(seed, 70u);
}

TEST(FlagTable, RejectsAnUnknownName) {
  EXPECT_EQ(problem({"--lenght", "5"}), "unknown flag --lenght");
}

TEST(FlagTable, RejectsValuesThatDoNotParseWhole) {
  EXPECT_NE(problem({"--length", "abc"}), "");
  EXPECT_NE(problem({"--length", "12abc"}), "");
  EXPECT_NE(problem({"--length", "1.5"}), "");
  EXPECT_NE(problem({"--fraction", "0.5x"}), "");
  EXPECT_NE(problem({"--fraction", "nan"}), "");
  EXPECT_NE(problem({"--drop=five"}), "");
  EXPECT_NE(problem({"--length="}), "");
}

TEST(FlagTable, RejectsAnInt64Overflow) {
  EXPECT_NE(problem({"--length", "99999999999999999999"}), "");
  EXPECT_EQ(problem({"--length", "9223372036854775807"}), "");
}

TEST(FlagTable, ChecksRangeEdges) {
  EXPECT_NE(problem({"--drop", "1"}), "");
  EXPECT_EQ(problem({"--drop", "0.999"}), "");
  EXPECT_EQ(problem({"--fraction", "1"}), "");
  EXPECT_NE(problem({"--fraction", "1.01"}), "");
  EXPECT_EQ(problem({"--length", "0"}), "");
  EXPECT_NE(problem({"--length", "-1"}), "");
  EXPECT_EQ(problem({"--seed", "-1"}), "");  // unbounded
}

TEST(FlagTable, RejectsAWordOutsideItsChoices) {
  EXPECT_EQ(problem({"--mode", "alpu128"}), "");
  EXPECT_NE(problem({"--mode", "alpu256"}), "");
}

TEST(FlagTable, RejectsAValueGivenToABool) {
  EXPECT_NE(problem({"--report", "5"}), "");
  EXPECT_EQ(problem({"--report=true"}), "");
  EXPECT_FALSE(checked({"--report=false"}).on("report"));
}

TEST(FlagTable, RejectsASecondPositional) {
  EXPECT_EQ(problem({}), "");
  EXPECT_EQ(problem({"extra"}), "unexpected argument 'extra'");
}

TEST(FlagTable, UsageListsEachDeclaredFlagOnce) {
  const std::string usage = kTable.usage();
  for (const common::FlagSpec& f : kTable.flags) {
    const std::string entry = "\n  --" + f.name + " ";
    const std::size_t first = usage.find(entry);
    EXPECT_NE(first, std::string::npos) << f.name;
    EXPECT_EQ(usage.find(entry, first + 1), std::string::npos) << f.name;
  }
  EXPECT_NE(usage.find("--drop R"), std::string::npos);
  EXPECT_NE(usage.find("--mode baseline|alpu128"), std::string::npos);
  EXPECT_NE(usage.find("in [0, 1)"), std::string::npos);
}

TEST(FlagTableDeathTest, ReadingAnUndeclaredNameAsserts) {
  const common::Args args = checked({});
  EXPECT_DEATH(args.integer("lenght"), "--lenght is not in prog's flag");
  EXPECT_DEATH(args.word("length"), "--length read as the wrong kind");
  EXPECT_DEATH(args.integer("seed"), "--seed has no default");
}

// ---- report ------------------------------------------------------------------

TEST(Report, RendersAllSectionsForAllNodes) {
  sim::Engine engine;
  mpi::Machine machine(
      engine, workload::make_system_config(workload::NicMode::kAlpu128, 3));
  sim::ProcessPool pool(engine);
  pool.spawn([](mpi::Machine& m) -> sim::Process {
    co_await m.rank(0).send(1, 1, 64);
  }(machine));
  pool.spawn([](mpi::Machine& m) -> sim::Process {
    co_await m.rank(1).recv(0, 1, 64);
  }(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());

  const std::string report = workload::machine_report(machine);
  EXPECT_NE(report.find("--- NIC ---"), std::string::npos);
  EXPECT_NE(report.find("--- ALPU ---"), std::string::npos);
  EXPECT_NE(report.find("--- NIC memory ---"), std::string::npos);
  EXPECT_NE(report.find("--- network ---"), std::string::npos);
  EXPECT_NE(report.find("node2.unexpected"), std::string::npos);
}

TEST(Report, DescribesTheMeasuredMachine) {
  std::string report;
  workload::UnexpectedParams p;
  p.queue_length = 50;
  p.report = &report;
  const workload::LatencyResult r = workload::run_unexpected(p);
  // Node 0's row: node, rx, tx, posted Q, unexpected Q, posted walks,
  // unexpected walks, ...
  std::istringstream row(report.substr(report.find("\n     0 ")));
  std::uint64_t node = 0, rx = 0, tx = 0, posted_q = 0, unexpected_q = 0;
  std::uint64_t posted_walks = 0, unexpected_walks = 0;
  row >> node >> rx >> tx >> posted_q >> unexpected_q >> posted_walks >>
      unexpected_walks;
  EXPECT_EQ(unexpected_q, 50u);
  EXPECT_EQ(posted_walks + unexpected_walks, r.sw_entries_walked);
}

TEST(Report, BaselineShowsDashesForMissingAlpus) {
  sim::Engine engine;
  mpi::Machine machine(
      engine, workload::make_system_config(workload::NicMode::kBaseline));
  const std::string report = workload::machine_report(machine);
  EXPECT_NE(report.find("node0.posted"), std::string::npos);
  // Dash cells mark absent units.
  EXPECT_NE(report.find("-"), std::string::npos);
}

}  // namespace
}  // namespace alpu
