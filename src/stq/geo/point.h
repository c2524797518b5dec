// 2-D point and velocity value types.
//
// The framework operates in a bounded 2-D space (by convention the unit
// square, see QueryProcessorOptions::bounds). Coordinates are doubles.

#ifndef STQ_GEO_POINT_H_
#define STQ_GEO_POINT_H_

#include <cmath>

namespace stq {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

// Velocity in space-units per second. A zero velocity denotes a
// non-predictive (sampled) object.
struct Velocity {
  double vx = 0.0;
  double vy = 0.0;

  bool IsZero() const { return vx == 0.0 && vy == 0.0; }

  friend bool operator==(const Velocity& a, const Velocity& b) {
    return a.vx == b.vx && a.vy == b.vy;
  }
};

// False when a coordinate is NaN or infinite. Such a value has no grid
// cell, no shard and no order, so the engines reject it at the API.
inline bool IsFinite(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}
inline bool IsFinite(const Velocity& v) {
  return std::isfinite(v.vx) && std::isfinite(v.vy);
}

inline double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

// Linear motion model: position after `dt` seconds at velocity `v`.
inline Point Advance(const Point& p, const Velocity& v, double dt) {
  return Point{p.x + v.vx * dt, p.y + v.vy * dt};
}

}  // namespace stq

#endif  // STQ_GEO_POINT_H_
