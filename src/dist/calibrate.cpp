#include "dist/calibrate.hpp"

#include <algorithm>
#include <cmath>

namespace wa::dist {

AlphaBeta fit_alpha_beta(const std::vector<CommSample>& samples) {
  AlphaBeta out;
  if (samples.empty()) return out;

  // Normal equations of seconds ~ alpha * m + beta * w:
  //   [ sum m*m  sum m*w ] [alpha]   [ sum m*s ]
  //   [ sum m*w  sum w*w ] [beta ] = [ sum w*s ]
  double mm = 0, mw = 0, ww = 0, ms = 0, ws = 0;
  for (const CommSample& c : samples) {
    mm += c.messages * c.messages;
    mw += c.messages * c.words;
    ww += c.words * c.words;
    ms += c.messages * c.seconds;
    ws += c.words * c.seconds;
  }
  const double det = mm * ww - mw * mw;
  // A rank-deficient system (all samples proportional in (m, w))
  // cannot separate latency from bandwidth; attribute everything to
  // bandwidth, which is the dominant channel for the sizes we sweep.
  if (samples.size() < 2 || std::abs(det) < 1e-30 * std::max(mm * ww, 1.0)) {
    out.beta = ww > 0 ? ws / ww : 0.0;
    out.degenerate = true;
  } else {
    out.alpha = (ms * ww - ws * mw) / det;
    out.beta = (ws * mm - ms * mw) / det;
    // A negative coefficient is noise, not physics, but clamping it
    // to zero while keeping the other joint coefficient leaves a fit
    // that is no longer least-squares.  The nonnegative optimum then
    // lies on that boundary: refit the remaining coefficient alone.
    if (out.alpha < 0) {
      out.alpha = 0.0;
      out.beta = ww > 0 ? ws / ww : 0.0;
      out.degenerate = true;
    } else if (out.beta < 0) {
      out.beta = 0.0;
      out.alpha = mm > 0 ? ms / mm : 0.0;
      out.degenerate = true;
    }
  }
  out.alpha = std::max(0.0, out.alpha);
  out.beta = std::max(0.0, out.beta);

  double rss = 0.0;
  for (const CommSample& c : samples) {
    const double r =
        c.seconds - out.alpha * c.messages - out.beta * c.words;
    rss += r * r;
  }
  out.residual = std::sqrt(rss / double(samples.size()));
  return out;
}

HwParams fitted_hw(const AlphaBeta& net, double mem_read_beta,
                   double mem_write_beta, HwParams base) {
  HwParams hw = base;
  if (net.alpha > 0) hw.alpha_nw = net.alpha;
  if (net.beta > 0) hw.beta_nw = net.beta;
  if (mem_read_beta > 0) {
    // Scale the L2<->L1 channels by the same factor the L3 read
    // channel moved: one memory subsystem, one measured speed.
    const double scale = mem_read_beta / base.beta_32;
    hw.beta_32 = mem_read_beta;
    hw.beta_21 = base.beta_21 * scale;
    hw.beta_12 = base.beta_12 * scale;
  }
  if (mem_write_beta > 0) hw.beta_23 = mem_write_beta;
  return hw;
}

double safe_ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace wa::dist
