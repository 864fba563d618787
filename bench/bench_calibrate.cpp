// Measured-vs-modeled calibration: the Transport seam turns the cost
// model into an instrument.  Under ShmTransport every charged
// collective really moves (and verifies) its bytes between per-rank
// arenas, so the harness can
//
//   1. sweep point-to-point sends and binomial broadcasts with known
//      (messages, words) footprints, measure wall-clock, and
//      least-squares-fit the network alpha (s/message) and beta
//      (s/word);
//   2. measure big-buffer memory streaming for the L3 read/write betas
//      and a blocked gemm for gamma (s/flop);
//   3. re-run SUMMA-vs-2.5D and stored-vs-streaming CA-CG with the
//      *fitted* HwParams and print the modelled cost next to the
//      wall-clock the transport actually spent, plus both crossover
//      points (the model's prediction and where the measurements put
//      this machine).
//
// All fitted coefficients and wall-clocks are machine-dependent, so
// every such JSON key carries a "_seconds" suffix (excluded from the
// drift check); the algorithm counters and transport word/message
// totals are schedule-determined and checked against the baseline.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_util.hpp"
#include "dist/calibrate.hpp"
#include "dist/cost_model.hpp"
#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "dist/mm25d.hpp"
#include "dist/summa.hpp"
#include "dist/transport.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"

using namespace wa;
using namespace wa::dist;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Alpha-beta time of one traffic record under @p hw (Machine's
/// proc_cost, but against an arbitrary parameter set so the same
/// counters can be re-priced during the crossover sweeps).
double priced(const ProcTraffic& t, const HwParams& hw) {
  return hw.alpha_nw * double(t.nw.messages) + hw.beta_nw * double(t.nw.words) +
         hw.beta_32 * double(t.l3_read.words) +
         hw.beta_23 * double(t.l3_write.words) +
         hw.beta_21 * double(t.l2_read.words) +
         hw.beta_12 * double(t.l2_write.words);
}

/// Sweep real transport operations and collect (messages, words,
/// seconds) samples for the least-squares fit.
std::vector<CommSample> sweep_network(ShmTransport& tp, std::size_t P) {
  std::vector<CommSample> samples;
  std::vector<std::size_t> group(P);
  std::iota(group.begin(), group.end(), std::size_t{0});
  std::vector<double> payload(std::size_t(1) << 17, 1.25);
  for (const std::size_t words :
       {std::size_t(64), std::size_t(512), std::size_t(4096),
        std::size_t(32768), std::size_t(131072)}) {
    const TransportStats before = tp.stats();
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t dst = 1; dst < P; ++dst) {
        tp.send(0, dst, words, payload.data());
      }
      tp.bcast(group, words, payload.data());
    }
    const TransportStats after = tp.stats();
    samples.push_back({double(after.messages - before.messages),
                       double(after.words - before.words),
                       after.seconds - before.seconds});
  }
  return samples;
}

/// Seconds per word of big-buffer streaming: read (sum) and write
/// (fill) passes over a buffer far larger than any cache level.
void sweep_memory(double& read_beta, double& write_beta) {
  std::vector<double> buf(std::size_t(1) << 22, 1.0);
  volatile double sink = 0.0;
  const int reps = 4;
  double t0 = now_seconds();
  for (int r = 0; r < reps; ++r) {
    double s = 0.0;
    for (const double v : buf) s += v;
    sink = sink + s;
  }
  read_beta = (now_seconds() - t0) / (double(reps) * double(buf.size()));
  t0 = now_seconds();
  for (int r = 0; r < reps; ++r) {
    std::memset(buf.data(), r, buf.size() * sizeof(double));
  }
  write_beta = (now_seconds() - t0) / (double(reps) * double(buf.size()));
  buf[0] = sink;  // keep the reads observable
}

/// Seconds per flop of the active gemm kernel at a cache-friendly
/// size: the gamma of the alpha-beta-gamma model.
double sweep_gamma() {
  const std::size_t n = 192;
  auto a = linalg::random_spd(n, 11);
  auto b = linalg::random_spd(n, 13);
  linalg::Matrix<double> c(n, n, 0.0);
  const double t0 = now_seconds();
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    linalg::active_kernels().gemm_acc(c.view(), a.view(), b.view(), 1.0);
  }
  const double flops = double(reps) * 2.0 * double(n) * double(n) * double(n);
  return (now_seconds() - t0) / flops;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(argc, argv);
  bench::env_kernels();
  // Validate the WA_TRANSPORT contract (usage errors exit 2), then
  // measure under shm regardless: calibration needs moving bytes.
  {
    auto checked = bench::env_transport();
    (void)checked;
  }

  std::printf("Calibration: fitting alpha/beta/gamma from real data "
              "movement (ShmTransport)\n\n");

  // ---- 1. network coefficients from a real collective sweep.
  const std::size_t Pnet = 8;
  ShmTransport net_tp;
  net_tp.attach(Pnet);
  const std::vector<CommSample> net_samples = sweep_network(net_tp, Pnet);
  const AlphaBeta net = fit_alpha_beta(net_samples);
  const TransportStats net_stats = net_tp.stats();

  // ---- 2. memory betas and compute gamma.
  double mem_read_beta = 0.0, mem_write_beta = 0.0;
  sweep_memory(mem_read_beta, mem_write_beta);
  const double gamma = sweep_gamma();
  const HwParams fitted = fitted_hw(net, mem_read_beta, mem_write_beta);

  bench::Table fit({"coefficient", "fitted", "default", "unit"});
  const HwParams def;
  fit.row({"alpha_nw", bench::fmt_d(fitted.alpha_nw, 9),
           bench::fmt_d(def.alpha_nw, 9), "s/message"});
  fit.row({"beta_nw", bench::fmt_d(fitted.beta_nw, 12),
           bench::fmt_d(def.beta_nw, 12), "s/word"});
  fit.row({"beta_32 (L3 read)", bench::fmt_d(fitted.beta_32, 12),
           bench::fmt_d(def.beta_32, 12), "s/word"});
  fit.row({"beta_23 (L3 write)", bench::fmt_d(fitted.beta_23, 12),
           bench::fmt_d(def.beta_23, 12), "s/word"});
  fit.row({"gamma", bench::fmt_d(gamma, 12), "-", "s/flop"});
  fit.print();
  std::printf("(fit rms residual %.3e s over %zu samples; transport "
              "verified %llu of %llu moved words)\n",
              net.residual, net_samples.size(),
              (unsigned long long)net_stats.verified,
              (unsigned long long)net_stats.words);
  std::printf("network fit degenerate: %s\n\n",
              net.degenerate
                  ? "yes (a coefficient fit to zero; alpha_nw/beta_nw "
                    "above keep the default for it)"
                  : "no");

  json.add("fit", "alpha_nw_seconds", fitted.alpha_nw);
  json.add("fit", "beta_nw_seconds", fitted.beta_nw);
  json.add("fit", "beta_32_seconds", fitted.beta_32);
  json.add("fit", "beta_23_seconds", fitted.beta_23);
  json.add("fit", "gamma_seconds", gamma);
  json.add("fit", "residual_seconds", net.residual);
  json.add("fit", "sweep_messages", net_stats.messages);
  json.add("fit", "sweep_words", net_stats.words);
  json.add("fit", "sweep_verified", net_stats.verified);

  // ---- 3a. SUMMA vs 2.5D, measured next to modeled.
  std::printf("SUMMA-L3ooL2 vs 2.5D (c=2), P=16, fitted HwParams:\n");
  bench::Table mm({"n", "summa model(s)", "summa meas(s)", "2.5d model(s)",
                   "2.5d meas(s)", "meas winner", "model winner"});
  for (const std::size_t n : {std::size_t(48), std::size_t(96)}) {
    const std::size_t P = 16, M1 = 48;
    const std::size_t M2 = n * n, M3 = std::size_t(1) << 24;
    auto a = linalg::random_spd(n, 3);
    auto b = linalg::random_spd(n, 5);

    linalg::Matrix<double> c1(n, n, 0.0);
    Machine ms(P, M1, M2, M3, fitted, nullptr,
               std::make_unique<ShmTransport>());
    summa_l3_ool2(ms, c1.view(), a.view(), b.view());
    const double summa_meas = ms.comm_wall_seconds() + ms.local_wall_seconds();

    linalg::Matrix<double> c2(n, n, 0.0);
    Machine m25(P, M1, M2, M3, fitted, nullptr,
                std::make_unique<ShmTransport>());
    Mm25dOptions opt;
    opt.c = 2;
    opt.use_l3 = true;
    mm_25d(m25, c2.view(), a.view(), b.view(), opt);
    const double meas25 = m25.comm_wall_seconds() + m25.local_wall_seconds();

    mm.row({std::to_string(n), bench::fmt_d(ms.cost(), 6),
            bench::fmt_d(summa_meas, 6), bench::fmt_d(m25.cost(), 6),
            bench::fmt_d(meas25, 6), meas25 < summa_meas ? "2.5d" : "summa",
            m25.cost() < ms.cost() ? "2.5d" : "summa"});

    const std::string cs = "mm_n" + std::to_string(n);
    json.add(cs, "summa_nw_words", ms.critical_path().nw.words);
    json.add(cs, "summa_l3_write_words", ms.critical_path().l3_write.words);
    json.add(cs, "mm25d_nw_words", m25.critical_path().nw.words);
    json.add(cs, "mm25d_l3_write_words", m25.critical_path().l3_write.words);
    json.add(cs, "summa_transport_words", ms.transport().stats().words);
    json.add(cs, "mm25d_transport_words", m25.transport().stats().words);
    json.add(cs, "summa_model_seconds", ms.cost());
    json.add(cs, "summa_measured_seconds", summa_meas);
    json.add(cs, "mm25d_model_seconds", m25.cost());
    json.add(cs, "mm25d_measured_seconds", meas25);
  }
  mm.print();

  // Crossover in n under the closed forms (Eqs. (2)/(3)) priced with
  // the fitted coefficients: the smallest edge where 2.5D's replica
  // staging beats SUMMA's panel traffic.
  const auto crossover_n = [](const HwParams& hw) -> std::size_t {
    const std::size_t P = 16, M2 = 1 << 22;
    for (std::size_t n = 64; n <= (std::size_t(1) << 22); n *= 2) {
      if (dom_beta_cost_25dmml3ool2(n, P, M2, 2, hw) <
          dom_beta_cost_summal3ool2(n, P, M2, hw)) {
        return n;
      }
    }
    return 0;
  };
  const std::size_t cross_fit = crossover_n(fitted);
  const std::size_t cross_def = crossover_n(def);
  std::printf("\n2.5D overtakes SUMMA at n >= %zu (fitted) vs n >= %zu "
              "(default model), P=16 M2=2^22 c=2 (0 = never in range)\n\n",
              cross_fit, cross_def);
  json.add("crossover", "mm_n_fitted_seconds", double(cross_fit));
  json.add("crossover", "mm_n_default", double(cross_def));

  // ---- 3b. stored vs streaming CA-CG: the same solve's counters,
  // re-priced across an NVM write-cost sweep, bracket the crossover;
  // the measured wall-clock says where this machine actually is.
  std::printf("CA-CG stored vs streaming (2-D stencil 24x24, P=4, s=4):\n");
  const sparse::Csr A = sparse::stencil_2d(24, 24);
  const std::size_t n = A.n;
  std::vector<double> rhs(n, 1.0);
  krylov::CaCgOptions copt;
  copt.s = 4;
  copt.max_outer = 8;
  copt.tol = 0.0;

  ProcTraffic stored_t, streaming_t;
  double stored_meas = 0.0, streaming_meas = 0.0;
  for (const auto mode :
       {krylov::CaCgMode::kStored, krylov::CaCgMode::kStreaming}) {
    Machine mk(4, 64, 1 << 16, 1 << 24, fitted, nullptr,
               std::make_unique<ShmTransport>());
    std::vector<double> x(n, 0.0);
    copt.mode = mode;
    ca_cg(mk, A, rhs, x, copt);
    const double meas = mk.comm_wall_seconds() + mk.local_wall_seconds();
    const bool stored = mode == krylov::CaCgMode::kStored;
    (stored ? stored_t : streaming_t) = mk.critical_path();
    (stored ? stored_meas : streaming_meas) = meas;
    const std::string cs = stored ? "cacg_stored" : "cacg_streaming";
    json.add(cs, "nw_words", mk.critical_path().nw.words);
    json.add(cs, "l3_write_words", mk.critical_path().l3_write.words);
    json.add(cs, "l3_read_words", mk.critical_path().l3_read.words);
    json.add(cs, "transport_words", mk.transport().stats().words);
    json.add(cs, "model_seconds", mk.cost());
    json.add(cs, "measured_seconds", meas);
  }

  bench::Table ck({"variant", "NVM writes", "NVM reads", "model(s)",
                   "measured(s)"});
  ck.row({"stored", bench::fmt_u(stored_t.l3_write.words),
          bench::fmt_u(stored_t.l3_read.words),
          bench::fmt_d(priced(stored_t, fitted), 6),
          bench::fmt_d(stored_meas, 6)});
  ck.row({"streaming", bench::fmt_u(streaming_t.l3_write.words),
          bench::fmt_u(streaming_t.l3_read.words),
          bench::fmt_d(priced(streaming_t, fitted), 6),
          bench::fmt_d(streaming_meas, 6)});
  ck.print();

  // NVM write-cost multiplier at which streaming starts to win: the
  // same counters, re-priced with beta_23 = k * fitted beta_32.
  double cross_k = 0.0;
  for (double k = 0.125; k <= 4096.0; k *= 2.0) {
    HwParams hw = fitted;
    hw.beta_23 = k * fitted.beta_32;
    if (priced(streaming_t, hw) < priced(stored_t, hw)) {
      cross_k = k;
      break;
    }
  }
  const double actual_k =
      fitted.beta_32 > 0 ? fitted.beta_23 / fitted.beta_32 : 0.0;
  std::printf("\nstreaming wins once NVM writes cost >= %.3gx NVM reads "
              "(this machine measured at %.3gx); measured winner: %s\n",
              cross_k, actual_k,
              streaming_meas < stored_meas ? "streaming" : "stored");
  json.add("crossover", "cacg_write_read_ratio_seconds", cross_k);
  json.add("crossover", "cacg_machine_ratio_seconds", actual_k);

  std::printf(
      "\nReading: fitted coefficients price the same schedules the\n"
      "simulator charges; where model and measurement disagree, the\n"
      "transport's wall-clock is the ground truth the model should\n"
      "be recalibrated toward.\n");
  return 0;
}
