#include "core/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace papi::core {

double
speedup(const RunResult &baseline, const RunResult &candidate)
{
    double c = candidate.seconds();
    if (c <= 0.0)
        sim::fatal("speedup: candidate has non-positive runtime");
    return baseline.seconds() / c;
}

double
energyEfficiency(const RunResult &baseline, const RunResult &candidate)
{
    // Tokens/joule improvement; runs decode the same batch, so this
    // reduces to the inverse energy ratio when token counts match.
    double b = baseline.tokensPerJoule();
    double c = candidate.tokensPerJoule();
    if (b <= 0.0)
        sim::fatal("energyEfficiency: baseline has no token/J figure");
    return c / b;
}

double
geomean(const std::vector<double> &values)
{
    // An empty sample has no geometric mean: return NaN rather than
    // aborting, so aggregation over pools/replicas that completed
    // zero requests degrades to a skipped stat instead of a fatal.
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            sim::fatal("geomean: non-positive value ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
formatSeconds(double seconds)
{
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    if (seconds >= 1.0)
        os << seconds << " s";
    else if (seconds >= 1e-3)
        os << seconds * 1e3 << " ms";
    else
        os << seconds * 1e6 << " us";
    return os.str();
}

std::string
formatJoules(double joules)
{
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    if (joules >= 1.0)
        os << joules << " J";
    else
        os << joules * 1e3 << " mJ";
    return os.str();
}


P2Quantile::P2Quantile(double q) : _q(q)
{
    if (!(q >= 0.0 && q <= 1.0))
        sim::fatal("P2Quantile: quantile ", q, " outside [0, 1]");
}

void
P2Quantile::add(double x)
{
    // The literal 5s and the 0/4 extreme indices below are the
    // five-marker structure the header pins at compile time.
    static_assert(P2Quantile::kMarkers == 5,
                  "P-square update rules below are written for "
                  "exactly five markers");
    if (_count < 5) {
        // Warm-up: keep the first five observations sorted in the
        // marker array (they become the initial marker heights).
        std::uint64_t i = _count;
        while (i > 0 && _height[i - 1] > x) {
            _height[i] = _height[i - 1];
            --i;
        }
        _height[i] = x;
        ++_count;
        if (_count == 5) {
            for (int m = 0; m < 5; ++m)
                _pos[m] = static_cast<double>(m + 1);
            _desired[0] = 1.0;
            _desired[1] = 1.0 + 2.0 * _q;
            _desired[2] = 1.0 + 4.0 * _q;
            _desired[3] = 3.0 + 2.0 * _q;
            _desired[4] = 5.0;
            _inc[0] = 0.0;
            _inc[1] = _q / 2.0;
            _inc[2] = _q;
            _inc[3] = (1.0 + _q) / 2.0;
            _inc[4] = 1.0;
        }
        return;
    }
    // Locate the cell of x, clamping the extreme markers.
    int k;
    if (x < _height[0]) {
        _height[0] = x;
        k = 0;
    } else if (x >= _height[4]) {
        _height[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= _height[k + 1])
            ++k;
    }
    for (int m = k + 1; m < 5; ++m)
        _pos[m] += 1.0;
    for (int m = 0; m < 5; ++m)
        _desired[m] += _inc[m];
    // Adjust the three interior markers toward their desired
    // positions: parabolic (P-square) when the result stays
    // monotone, linear otherwise.
    for (int m = 1; m <= 3; ++m) {
        const double d = _desired[m] - _pos[m];
        const bool up = d >= 1.0 && _pos[m + 1] - _pos[m] > 1.0;
        const bool down = d <= -1.0 && _pos[m - 1] - _pos[m] < -1.0;
        if (!up && !down)
            continue;
        const double s = up ? 1.0 : -1.0;
        const double hp = _height[m + 1];
        const double hm = _height[m - 1];
        const double h = _height[m];
        const double np = _pos[m + 1];
        const double nm = _pos[m - 1];
        const double n = _pos[m];
        double cand =
            h + s / (np - nm) *
                    ((n - nm + s) * (hp - h) / (np - n) +
                     (np - n - s) * (h - hm) / (n - nm));
        if (!(hm < cand && cand < hp)) {
            // Parabolic prediction broke monotonicity: fall back
            // to linear interpolation toward the neighbour.
            const int j = m + static_cast<int>(s);
            cand = h + s * (_height[j] - h) / (_pos[j] - n);
        }
        _height[m] = cand;
        _pos[m] += s;
    }
    ++_count;
}

double
P2Quantile::value() const
{
    if (_count == 0)
        return std::numeric_limits<double>::quiet_NaN();
    if (_count <= 5) {
        // Exact while the sample still fits the marker array,
        // under the repo-wide percentileSorted() convention.
        const auto idx = static_cast<std::size_t>(
            _q * static_cast<double>(_count - 1));
        return _height[idx];
    }
    return _height[2];
}

double
percentileSorted(const std::vector<double> &sorted_values, double q)
{
    // No sample, no quantile: NaN (callers skip the stat export).
    if (sorted_values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted_values.size() - 1));
    return sorted_values[idx];
}

void
selectPercentiles(std::vector<double> &values, std::span<const double> qs,
                  std::span<double> out)
{
    if (values.empty()) {
        std::fill(out.begin(), out.end(),
                  std::numeric_limits<double>::quiet_NaN());
        return;
    }
    // After nth_element places rank r, everything below it is no
    // larger than anything from r on, so a lower rank's sorted value
    // is the one it has within [0, r). Equal ranks reuse the pick.
    const auto last = static_cast<double>(values.size() - 1);
    auto end = values.end();
    for (std::size_t k = qs.size(); k-- > 0;) {
        const auto nth = values.begin() +
                         static_cast<std::ptrdiff_t>(qs[k] * last);
        if (nth != end)
            std::nth_element(values.begin(), nth, end);
        out[k] = *nth;
        end = nth;
    }
}

} // namespace papi::core
