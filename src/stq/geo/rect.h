// Axis-aligned rectangle with closed bounds [min_x, max_x] x [min_y, max_y].
//
// Rectangles are the region type of range queries and of grid cells. An
// "empty" rectangle (max < min on either axis) contains nothing and
// intersects nothing.

#ifndef STQ_GEO_RECT_H_
#define STQ_GEO_RECT_H_

#include <algorithm>
#include <string>
#include <vector>

#include "stq/geo/point.h"

namespace stq {

struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = -1.0;  // default-constructed Rect is empty
  double max_y = -1.0;

  static Rect Empty() { return Rect{}; }

  // Rectangle from corner + extents. `w`/`h` must be >= 0.
  static Rect FromCorner(double x, double y, double w, double h) {
    return Rect{x, y, x + w, y + h};
  }

  // Axis-aligned square of side `side` centered at `c`.
  static Rect CenteredSquare(const Point& c, double side) {
    const double h = side / 2.0;
    return Rect{c.x - h, c.y - h, c.x + h, c.y + h};
  }

  // Smallest rectangle covering both corner points.
  static Rect FromCorners(const Point& a, const Point& b) {
    return Rect{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
                std::max(a.y, b.y)};
  }

  bool IsEmpty() const { return max_x < min_x || max_y < min_y; }

  double Width() const { return IsEmpty() ? 0.0 : max_x - min_x; }
  double Height() const { return IsEmpty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }
  Point Center() const {
    return Point{(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  bool Contains(const Point& p) const {
    return !IsEmpty() && p.x >= min_x && p.x <= max_x && p.y >= min_y &&
           p.y <= max_y;
  }

  // True when `other` lies fully inside this rectangle.
  bool ContainsRect(const Rect& other) const;

  bool Intersects(const Rect& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return min_x <= other.max_x && other.min_x <= max_x &&
           min_y <= other.max_y && other.min_y <= max_y;
  }

  // Intersection; empty if disjoint.
  Rect Intersection(const Rect& other) const;

  // Smallest rectangle covering both; if one is empty, returns the other.
  Rect Union(const Rect& other) const;

  // Expands every side by `margin` (>= 0).
  Rect Expanded(double margin) const {
    if (IsEmpty()) return *this;
    return Rect{min_x - margin, min_y - margin, max_x + margin,
                max_y + margin};
  }

  // Minimum Euclidean distance from `p` to this rectangle (0 if inside).
  double DistanceTo(const Point& p) const;

  std::string DebugString() const;

  friend bool operator==(const Rect& a, const Rect& b) {
    if (a.IsEmpty() && b.IsEmpty()) return true;
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

inline bool IsFinite(const Rect& r) {
  return std::isfinite(r.min_x) && std::isfinite(r.min_y) &&
         std::isfinite(r.max_x) && std::isfinite(r.max_y);
}

// Decomposes the set difference `a - b` into at most four disjoint
// rectangles. The union of the returned rectangles (closed regions) covers
// exactly the points of `a` outside the open interior of `b`; this is the
// primitive behind the paper's incremental evaluation of a moving range
// query, where only `A_new - A_old` is re-evaluated against the grid and
// `A_old - A_new` produces negative updates.
std::vector<Rect> RectDifference(const Rect& a, const Rect& b);

// Allocation-free form for hot paths: clears `*out` and appends the
// difference pieces, reusing the vector's capacity across calls.
void RectDifference(const Rect& a, const Rect& b, std::vector<Rect>* out);

}  // namespace stq

#endif  // STQ_GEO_RECT_H_
