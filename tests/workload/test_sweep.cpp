// Determinism and coverage tests for the parallel sweep runner: the
// whole point of sweep_map is that a figure regenerated at --jobs 8 is
// byte-identical to --jobs 1, so these tests compare full CSV strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "workload/sweep.hpp"

namespace alpu::workload {
namespace {

TEST(SweepRunner, ResolveJobsFloorsAtOne) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-4), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

TEST(SweepRunner, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  detail::parallel_for_index(kN, 8,
                             [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepRunner, MapPreservesInputOrder) {
  std::vector<int> points(257);
  std::iota(points.begin(), points.end(), 0);
  SweepOptions parallel;
  parallel.jobs = 8;
  const std::vector<int> doubled =
      sweep_map(points, [](int v) { return 2 * v; }, parallel);
  ASSERT_EQ(doubled.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(doubled[i], 2 * points[i]);
  }
}

TEST(SweepRunner, EmptyInputIsFine) {
  const std::vector<int> none;
  EXPECT_TRUE(sweep_map(none, [](int v) { return v; }).empty());
}

TEST(SweepRunner, BodyExceptionPropagates) {
  EXPECT_THROW(detail::parallel_for_index(
                   64, 4,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(SweepRunner, SurfaceCsvSerialVsParallelByteIdentical) {
  // The acceptance criterion for the whole runner: the reduced Figure 5
  // surface must render to the same bytes at any job count.
  const std::vector<SurfacePoint> points = fig5_surface_points(/*quick=*/true);
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const std::string csv1 = surface_csv(run_preposted_surface(points, serial));
  const std::string csv8 =
      surface_csv(run_preposted_surface(points, parallel));
  EXPECT_EQ(csv1, csv8);
  EXPECT_FALSE(csv1.empty());
}

TEST(SweepRunner, RepeatedParallelRunsIdentical) {
  const std::vector<SurfacePoint> points = fig5_surface_points(/*quick=*/true);
  SweepOptions parallel;
  parallel.jobs = 8;
  const std::string a = surface_csv(run_preposted_surface(points, parallel));
  const std::string b = surface_csv(run_preposted_surface(points, parallel));
  EXPECT_EQ(a, b);
}

TEST(SweepRunner, SurfaceRowsMatchPointOrder) {
  const std::vector<SurfacePoint> points = fig5_surface_points(/*quick=*/true);
  SweepOptions parallel;
  parallel.jobs = 4;
  const std::vector<SurfaceRow> rows =
      run_preposted_surface(points, parallel);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(rows[i].point.mode, points[i].mode);
    EXPECT_EQ(rows[i].point.queue_length, points[i].queue_length);
    EXPECT_EQ(rows[i].point.fraction_traversed, points[i].fraction_traversed);
  }
}

TEST(SweepRunner, GridShapesAreConsistent) {
  for (bool quick : {false, true}) {
    const auto lengths = fig5_queue_lengths(quick);
    const auto fractions = fig5_fractions(quick);
    const auto points = fig5_surface_points(quick);
    EXPECT_EQ(points.size(), 3 * lengths.size() * fractions.size());
  }
  // Figure 6: the quick grid is a subset of the full one, both ascending.
  const auto full = fig6_queue_lengths(false);
  const auto quick = fig6_queue_lengths(true);
  EXPECT_EQ(full.size(), 17u);
  EXPECT_EQ(quick.size(), 12u);
  for (const auto& g : {full, quick}) {
    EXPECT_EQ(std::adjacent_find(g.begin(), g.end(), std::greater_equal<>()),
              g.end());
  }
  EXPECT_TRUE(
      std::includes(full.begin(), full.end(), quick.begin(), quick.end()));
}

}  // namespace
}  // namespace alpu::workload
