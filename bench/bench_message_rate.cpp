// Gap / message-rate study (the Section I motivation).
//
// The introduction ranks gap (the inverse message rate) as the
// second-largest application impact after overhead, and identifies queue
// traversal on the NIC as what inflates it.  A burst of back-to-back
// messages streams into a receiver with a standing posted queue; the
// achieved per-message gap and message rate are reported for the
// baseline and ALPU NICs.  (Host wall-ns per simulated message is the
// `host_ns_per_msg` metric of bench/e2e, not this binary's job.)
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "workload/scenarios.hpp"

namespace {

using alpu::workload::MessageRateParams;
using alpu::workload::NicMode;

void print_table() {
  using alpu::common::fmt_double;
  constexpr int kBurst = 64;
  std::printf("=== message gap vs standing posted-queue length ===\n");
  std::printf("(burst of %d back-to-back 0-byte sends; gap measured at the\n"
              " receiver; Mmsg/s = 1000/gap_ns)\n\n", kBurst);

  alpu::common::TextTable t;
  t.set_header({"queue_length", "baseline gap (ns)", "alpu128 gap (ns)",
                "alpu256 gap (ns)", "baseline Mmsg/s", "alpu256 Mmsg/s"});
  for (std::size_t len : {0ul, 10ul, 50ul, 100ul, 200ul, 400ul}) {
    auto gap = [&](NicMode mode) {
      MessageRateParams p;
      p.mode = mode;
      p.queue_length = len;
      p.burst = kBurst;
      return alpu::common::to_ns(alpu::workload::run_message_rate(p));
    };
    const double base = gap(NicMode::kBaseline);
    const double a128 = gap(NicMode::kAlpu128);
    const double a256 = gap(NicMode::kAlpu256);
    t.add_row({std::to_string(len), fmt_double(base, 1), fmt_double(a128, 1),
               fmt_double(a256, 1), fmt_double(1000.0 / base, 2),
               fmt_double(1000.0 / a256, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Reading: the baseline's gap grows with every entry each\n"
              "message must walk past (message rate collapses); the ALPU\n"
              "holds the gap flat until the queue outgrows its capacity.\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
