// Section 7.2: LL-LUNP vs RL-LUNP under Model 2.2.  The left-looking
// algorithm minimizes NVM writes (beta23 ~ n^2/P per processor); the
// right-looking one minimizes interprocessor words.  We execute both
// on the virtual machine, verify numerics, and print measured counters
// next to the paper's dominant-cost formulas.
//
// The numerics are distributed block-cyclically over the ProcessGrid
// (WA_PROCS overrides P; non-power-of-two counts run on rectangular
// grids) and executed by the WA_BACKEND backend; a final section
// re-runs both schedules under the serial simulator and the thread
// pool and prints the wall-clock speedup, whose channel counters must
// stay byte-identical.  A last line prints LL-LU's GF/s as a fraction
// of the same run's gemm GF/s -- the speed ratio CI gates.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "dist/backend.hpp"
#include "dist/cost_model.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/transport.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"

using namespace wa;
using namespace wa::dist;

int main(int argc, char** argv) {
  bench::JsonReport json(argc, argv);
  const double sc = bench::env_scale();
  const std::size_t n = std::size_t(64 * sc);
  const std::size_t P = bench::env_procs(16);
  const std::size_t M1 = 48, M2 = 640, M3 = 1 << 24;

  std::printf("Section 7.2: parallel LU without pivoting, n=%zu P=%zu "
              "M2=%zu (Model 2.2, data in NVM)\n\n",
              n, P, M2);

  auto a0 = linalg::random_spd(n, 3);
  auto ref = a0;
  linalg::lu_nopivot_unblocked(ref.view());

  Machine m_ll(P, M1, M2, M3, HwParams{}, bench::env_backend());
  auto a_ll = a0;
  lu_left_looking(m_ll, a_ll.view(), /*b=*/2, /*s=*/2);
  std::printf("[LL-LUNP] numerics max|err| = %.2e\n",
              linalg::max_abs_diff(a_ll, ref));

  Machine m_rl(P, M1, M2, M3, HwParams{}, bench::env_backend());
  auto a_rl = a0;
  lu_right_looking(m_rl, a_rl.view(), /*b=*/4);
  std::printf("[RL-LUNP] numerics max|err| = %.2e\n\n",
              linalg::max_abs_diff(a_rl, ref));

  const auto ll = m_ll.critical_path();
  const auto rl = m_rl.critical_path();
  const auto mll = lu_ll_cost(n, P, M2);
  const auto mrl = lu_rl_cost(n, P, M2);

  // Machine-readable counters for CI's baseline drift check.
  const auto dump = [&](const char* key, const ProcTraffic& t,
                        const Machine& m) {
    json.add(key, "nw_words", t.nw.words);
    json.add(key, "nw_messages", t.nw.messages);
    json.add(key, "l3_write_words", t.l3_write.words);
    json.add(key, "l3_read_words", t.l3_read.words);
    json.add(key, "l2_write_words", t.l2_write.words);
    json.add(key, "wall_seconds", m.local_wall_seconds());
  };
  dump("ll_lunp", ll, m_ll);
  dump("rl_lunp", rl, m_rl);

  bench::Table t({"algorithm", "NW words", "NVM writes", "NVM reads",
                  "model NW", "model NVMw"});
  t.row({"LL-LUNP (WA)", bench::fmt_u(ll.nw.words),
         bench::fmt_u(ll.l3_write.words), bench::fmt_u(ll.l3_read.words),
         bench::fmt_d(mll.nw_words, 0), bench::fmt_d(mll.l3w_words, 0)});
  t.row({"RL-LUNP (CA)", bench::fmt_u(rl.nw.words),
         bench::fmt_u(rl.l3_write.words), bench::fmt_u(rl.l3_read.words),
         bench::fmt_d(mrl.nw_words, 0), bench::fmt_d(mrl.l3w_words, 0)});
  t.print();

  std::printf("\nPredicted times under two NVM speeds:\n");
  for (const char* label : {"slow NVM", "fast NVM"}) {
    const auto hw = std::string(label) == "slow NVM" ? HwParams::slow_nvm()
                                                     : HwParams::fast_nvm();
    std::printf("  %-9s: LL %.3e s  RL %.3e s  -> %s wins\n", label,
                mll.time(hw), mrl.time(hw),
                mll.time(hw) < mrl.time(hw) ? "LL" : "RL");
  }

  // Execution-backend comparison: the per-rank panel/trailing phases
  // run on a thread pool instead of the serial simulator; counters
  // and output bits must not move.
  {
    const std::size_t env_threads = bench::env_threads();
    const std::size_t threads =
        env_threads != 0
            ? env_threads
            : std::max<std::size_t>(4, ThreadedBackend::default_threads());
    std::printf("\nBackend wall-clock, per-rank LU phases (n=%zu, P=%zu):\n",
                n, P);
    bench::Table bt({"algorithm", "serial (s)", "threaded (s)", "speedup",
                     "counters"});
    const auto compare = [&](const char* name, auto&& lu) {
      Machine serial(P, M1, M2, M3, HwParams{},
                     std::make_unique<SerialSimBackend>());
      auto a_serial = a0;
      lu(serial, a_serial.view());
      Machine threaded(P, M1, M2, M3, HwParams{},
                       std::make_unique<ThreadedBackend>(threads));
      auto a_threaded = a0;
      lu(threaded, a_threaded.view());
      const double ws = serial.local_wall_seconds();
      const double wt = threaded.local_wall_seconds();
      bt.row({name, bench::fmt_d(ws, 4), bench::fmt_d(wt, 4),
              bench::fmt_d(wt > 0 ? ws / wt : 0.0),
              bench::same_counters(serial, threaded) ? "identical" : "MISMATCH"});
    };
    compare("LL-LUNP", [](Machine& m, linalg::MatrixView<double> a) {
      lu_left_looking(m, a, /*b=*/2, /*s=*/2);
    });
    compare("RL-LUNP", [](Machine& m, linalg::MatrixView<double> a) {
      lu_right_looking(m, a, /*b=*/4);
    });
    bt.print();
    std::printf("(threaded x%zu; the RL trailing updates dominate and "
                "parallelize -- speedup needs problem sizes around "
                "n >= 512, e.g. WA_SCALE=8)\n",
                threads);
  }

  // Same-run speed ratio: LL-LU GF/s at a fixed shape (n = 384, P = 4,
  // b = 2; serial backend, charge-only transport) over the active
  // kernels' gemm GF/s at 384^3 (blocked unless WA_KERNELS=naive), both
  // best of kReps in this process.  Absolute wall times drift with the
  // host; the ratio is what CI gates (check_drift.py --perf
  // ll_over_gemm_ratio>=FLOOR), and the many reps keep a transient
  // stall on a shared runner out of it.
  {
    const std::size_t rn = 384, rP = 4, rb = 2, kReps = 10;
    const auto r0 = linalg::random_spd(rn, 7);
    double t_ll = 1e300;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      auto a = r0;
      Machine m(rP, M1, M2, M3, HwParams{},
                std::make_unique<SerialSimBackend>(),
                std::make_unique<SimTransport>());
      const double t0 = bench::now_s();
      lu_left_looking(m, a.view(), rb, /*s=*/2);
      t_ll = std::min(t_ll, bench::now_s() - t0);
    }
    linalg::Matrix<double> ga(rn, rn), gb(rn, rn), gc(rn, rn, 0.0);
    linalg::fill_random(ga, 8);
    linalg::fill_random(gb, 9);
    const double t_gemm = bench::best_of(kReps, [&] {
      linalg::active_kernels().gemm_acc(gc.view(), ga.view(), gb.view(), 1.0);
    });
    const double n3 = double(rn) * double(rn) * double(rn);
    const double ll_gflops = 2.0 * n3 / 3.0 / t_ll * 1e-9;
    const double gemm_gflops = 2.0 * n3 / t_gemm * 1e-9;
    const double ratio = ll_gflops / gemm_gflops;
    std::printf("\nLL-LU vs same-run gemm (n=%zu, P=%zu, b=%zu, serial, %s "
                "kernels): LL %.3f GF/s, gemm %.2f GF/s, "
                "ll_over_gemm_ratio = %.3f\n",
                rn, rP, rb, linalg::active_kernels().name, ll_gflops,
                gemm_gflops, ratio);
    json.add("ll_over_gemm_ratio", "n", std::uint64_t(rn));
    json.add("ll_over_gemm_ratio", "procs", std::uint64_t(rP));
    json.add("ll_over_gemm_ratio", "panel", std::uint64_t(rb));
    json.add("ll_over_gemm_ratio", "ll_over_gemm_ratio", ratio);
  }

  std::printf(
      "\nReading: LL-LUNP writes NVM ~n^2/P per processor (output only);"
      "\nRL-LUNP writes the trailing matrix back every panel but moves"
      "\nfar fewer network words -- the same trade-off as Table 2.\n");
  return 0;
}
