// Microbenchmarks for the code the simulator actually spends its
// cycles in.  Two halves:
//
//   1. The LocalKernels seam: naive vs blocked GFLOP/s for the dense
//      per-rank kernels (gemm, trsm, syrk) at n = 128/256/512, with a
//      parity guard so a fast-but-wrong kernel cannot pass unnoticed.
//      This is the number the seam exists for -- per-rank numerics
//      should measure the hardware, not the loop nest.
//   2. The simulator substrates (cache model event rate, traced and
//      explicit matmul drivers) that the Figure 2/5 replays lean on.
//
// With --json PATH the deterministic counters (flops, reps, simulator
// event counts) are drift-checked by CI; every timing key contains
// "wall" and is excluded.

#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "cachesim/traced.hpp"
#include "core/matmul_explicit.hpp"
#include "core/matmul_traced.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace wa;

using bench::best_of;
using bench::now_s;

struct KernelCase {
  const char* name;
  std::uint64_t flops;  // per invocation, nominal
  // Run one invocation with the given table into `out` (re-seeded
  // identically each call so naive and blocked see the same inputs).
  void (*run)(const linalg::LocalKernels&, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b);
};

void run_gemm(const linalg::LocalKernels& k, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b) {
  k.gemm_acc(out.view(), a.view(), b.view(), 1.0);
}

void run_trsm(const linalg::LocalKernels& k, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b) {
  (void)b;
  k.trsm_left_upper(a.view(), out.view());
}

void run_syrk(const linalg::LocalKernels& k, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b) {
  k.syrk_lower_acc(out.view(), a.view(), b.view());
}

void bench_local_kernels(bench::JsonReport& report, bench::Table& table) {
  const std::size_t sizes[] = {128, 256, 512};
  for (const std::size_t n : sizes) {
    // Fewer reps at larger n keeps the smoke run fast; best-of damps
    // scheduler noise on shared CI runners.
    const std::size_t reps = n <= 128 ? 8 : n <= 256 ? 4 : 2;
    const KernelCase cases[] = {
        {"gemm", 2ull * n * n * n, &run_gemm},
        {"trsm", 1ull * n * n * n, &run_trsm},
        {"syrk", 1ull * n * n * n, &run_syrk},
    };
    for (const KernelCase& kc : cases) {
      linalg::Matrix<double> a(n, n), b(n, n);
      linalg::fill_random(a, 1);
      linalg::fill_random(b, 2);
      if (kc.run == &run_trsm) {
        // A well-conditioned upper-triangular operand.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < i; ++j) a(i, j) = 0.0;
          a(i, i) = 4.0 + std::abs(a(i, i));
        }
      }
      linalg::Matrix<double> base(n, n);
      linalg::fill_random(base, 3);

      linalg::Matrix<double> out_naive = base;
      kc.run(linalg::naive_kernels(), out_naive, a, b);
      linalg::Matrix<double> out_blocked = base;
      kc.run(linalg::blocked_kernels(), out_blocked, a, b);
      const double diff = linalg::max_abs_diff(out_naive, out_blocked);
      if (!(diff < 1e-8)) {
        bench::die("bench_kernels_perf: naive/blocked parity broke on " +
                   std::string(kc.name) + " n=" + std::to_string(n) +
                   " (max diff " + bench::fmt_d(diff, 3) + ")");
      }

      linalg::Matrix<double> out = base;
      const double t_naive = best_of(reps, [&] {
        out = base;
        kc.run(linalg::naive_kernels(), out, a, b);
      });
      const double t_blocked = best_of(reps, [&] {
        out = base;
        kc.run(linalg::blocked_kernels(), out, a, b);
      });
      const double gf_naive = double(kc.flops) / t_naive / 1e9;
      const double gf_blocked = double(kc.flops) / t_blocked / 1e9;

      const std::string cname =
          std::string(kc.name) + "_n" + std::to_string(n);
      report.add(cname, "flops", kc.flops);
      report.add(cname, "reps", std::uint64_t(reps));
      report.add(cname, "naive_gflops_wall", gf_naive);
      report.add(cname, "blocked_gflops_wall", gf_blocked);
      report.add(cname, "speedup_wall", t_naive / t_blocked);
      table.row({cname, std::to_string(n), bench::fmt_d(gf_naive),
                 bench::fmt_d(gf_blocked),
                 bench::fmt_d(t_naive / t_blocked) + "x"});
    }
  }

  // Panel-shaped symmetric products: the Gram matrices of the batched
  // Krylov solvers are tiny (m = 2s+1 basis columns or m = b <= 16
  // RHS) against a long inner dimension (the rank's local rows), a
  // shape the square cases above never reach.  The blocked table
  // routes these through the accumulator-chain panel leg.
  const std::size_t pm = 16;
  const std::size_t pks[] = {4096, 16384, 65536};
  for (const std::size_t pk : pks) {
    const std::size_t reps = pk <= 4096 ? 16 : pk <= 16384 ? 8 : 4;
    linalg::Matrix<double> a(pm, pk), b(pm, pk);
    linalg::fill_random(a, 4);
    linalg::fill_random(b, 5);
    linalg::Matrix<double> base(pm, pm);
    linalg::fill_random(base, 6);

    linalg::Matrix<double> out_naive = base;
    linalg::naive_kernels().syrk_lower_acc(out_naive.view(), a.view(),
                                           b.view());
    linalg::Matrix<double> out_blocked = base;
    linalg::blocked_kernels().syrk_lower_acc(out_blocked.view(), a.view(),
                                             b.view());
    // Looser bar than the square cases: reordered summation over a
    // 64k-term inner product legitimately drifts past 1e-8.
    const double diff = linalg::max_abs_diff(out_naive, out_blocked);
    if (!(diff < 1e-6)) {
      bench::die("bench_kernels_perf: naive/blocked parity broke on "
                 "syrk_panel k=" +
                 std::to_string(pk) + " (max diff " + bench::fmt_d(diff, 3) +
                 ")");
    }

    const std::uint64_t flops = std::uint64_t(pm) * (pm + 1) * pk;
    linalg::Matrix<double> out = base;
    const double t_naive = best_of(reps, [&] {
      out = base;
      linalg::naive_kernels().syrk_lower_acc(out.view(), a.view(), b.view());
    });
    const double t_blocked = best_of(reps, [&] {
      out = base;
      linalg::blocked_kernels().syrk_lower_acc(out.view(), a.view(),
                                               b.view());
    });
    const double gf_naive = double(flops) / t_naive / 1e9;
    const double gf_blocked = double(flops) / t_blocked / 1e9;

    const std::string cname = "syrk_panel_m16_k" + std::to_string(pk);
    report.add(cname, "flops", flops);
    report.add(cname, "reps", std::uint64_t(reps));
    report.add(cname, "naive_gflops_wall", gf_naive);
    report.add(cname, "blocked_gflops_wall", gf_blocked);
    report.add(cname, "speedup_wall", t_naive / t_blocked);
    table.row({cname, std::to_string(pk), bench::fmt_d(gf_naive),
               bench::fmt_d(gf_blocked),
               bench::fmt_d(t_naive / t_blocked) + "x"});
  }
}

void bench_substrates(bench::JsonReport& report, bench::Table& table) {
  // Cache-model event rate, sequential and (xorshift) random.
  {
    cachesim::CacheHierarchy sim(cachesim::nehalem_scaled(), 64);
    const std::size_t accesses = 1 << 20;
    std::uint64_t addr = 0;
    const double t = best_of(2, [&] {
      for (std::size_t i = 0; i < accesses; ++i) {
        sim.read(addr, 8);
        addr = (addr + 8) % (1 << 22);
      }
    });
    report.add("cachesim_seq", "accesses", std::uint64_t(accesses));
    report.add("cachesim_seq", "maccesses_per_s_wall", accesses / t / 1e6);
    table.row({"cachesim_seq", "-", "-", "-",
               bench::fmt_d(accesses / t / 1e6) + " Ma/s"});
  }
  {
    cachesim::CacheHierarchy sim(cachesim::nehalem_scaled(), 64);
    const std::size_t accesses = 1 << 20;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    const double t = best_of(2, [&] {
      for (std::size_t i = 0; i < accesses; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sim.read(x % (1 << 24), 8);
      }
    });
    report.add("cachesim_random", "accesses", std::uint64_t(accesses));
    report.add("cachesim_random", "maccesses_per_s_wall", accesses / t / 1e6);
    table.row({"cachesim_random", "-", "-", "-",
               bench::fmt_d(accesses / t / 1e6) + " Ma/s"});
  }
  // Trace-driven multilevel matmul: the dram_writebacks counter is
  // deterministic, so it doubles as a drift pin for the cache model.
  {
    const std::size_t n = 48;
    cachesim::CacheHierarchy sim(cachesim::nehalem_scaled(), 64);
    cachesim::AddressSpace as;
    core::TracedMat a(sim, as, n, n), b(sim, as, n, n), c(sim, as, n, n);
    const std::size_t bs[] = {16};
    const double t0 = now_s();
    core::traced_wa_matmul_multilevel(c, a, b, bs);
    const double t = now_s() - t0;
    report.add("traced_matmul_n48", "dram_writebacks", sim.dram_writebacks());
    report.add("traced_matmul_n48", "dram_fills", sim.dram_fills());
    report.add("traced_matmul_n48", "seconds_wall", t);
    table.row({"traced_matmul_n48", std::to_string(n), "-", "-",
               bench::fmt_u(sim.dram_writebacks()) + " wb"});
  }
  // Explicit-hierarchy matmul: store words are the WA pin.
  {
    const std::size_t n = 64;
    linalg::Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
    linalg::fill_random(a, 4);
    linalg::fill_random(b, 5);
    memsim::Hierarchy h({3 * 8 * 8, memsim::Hierarchy::kUnbounded});
    const double t0 = now_s();
    core::blocked_matmul_explicit(c.view(), a.view(), b.view(), 8, h,
                                  core::LoopOrder::kIJK);
    const double t = now_s() - t0;
    report.add("explicit_matmul_n64", "store_words", h.stores_words(0));
    report.add("explicit_matmul_n64", "load_words", h.loads_words(0));
    report.add("explicit_matmul_n64", "seconds_wall", t);
    table.row({"explicit_matmul_n64", std::to_string(n), "-", "-",
               bench::fmt_u(h.stores_words(0)) + " st"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const linalg::KernelImpl active = bench::env_kernels();
  std::printf("local kernels: naive vs blocked (WA_KERNELS=%s active)\n",
              linalg::kernels(active).name);
  bench::Table table({"case", "n", "naive GF/s", "blocked GF/s", "ratio"});
  bench_local_kernels(report, table);
  bench_substrates(report, table);
  table.print();
  return 0;
}
