// WKT reader/writer tests: canonical output, round trips (including
// property-based random geometries) and parse-error handling.
#include <gtest/gtest.h>

#include <cmath>

#include "geom/wkt.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sjc::geom {
namespace {

TEST(Wkt, WritesPoint) {
  EXPECT_EQ(to_wkt(Geometry::point(1.5, -2.25)), "POINT (1.5 -2.25)");
}

TEST(Wkt, WritesLineString) {
  EXPECT_EQ(to_wkt(Geometry::line_string({{0, 0}, {1, 1}})), "LINESTRING (0 0, 1 1)");
}

TEST(Wkt, WritesPolygonWithHole) {
  const Geometry poly = Geometry::polygon(
      {{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}},
      {{{1, 1}, {2, 1}, {2, 2}, {1, 2}, {1, 1}}});
  EXPECT_EQ(to_wkt(poly),
            "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))");
}

TEST(Wkt, WritesSignedZeroHugeAndSubnormalShortest) {
  EXPECT_EQ(to_wkt(Geometry::point(-0.0, 1e300)), "POINT (-0 1e+300)");
  EXPECT_EQ(to_wkt(Geometry::point(5e-324, -1.7976931348623157e308)),
            "POINT (5e-324 -1.7976931348623157e+308)");
  EXPECT_EQ(to_wkt(Geometry::point(2.2250738585072014e-308, 0.1)),
            "POINT (2.2250738585072014e-308 0.1)");
}

TEST(Wkt, AppendWktExtendsPrefixLikeToWkt) {
  const std::vector<Coord> ring{{-0.0, 0}, {1e300, 0}, {1e300, 4.9e-324}, {-0.0, 0}};
  const std::vector<Coord> hole{{1, 1}, {2, 1}, {2, 2.2250738585072014e-308}, {1, 1}};
  const Geometry geometries[] = {
      Geometry::point(-0.0, 5e-324),
      Geometry::line_string({{-1e300, 0.1}, {1.7976931348623157e308, -0.0}}),
      Geometry::polygon(ring, {hole}),
      Geometry::multi_line_string(
          {LineString{{{0, 0}, {1, 1}}}, LineString{{{-0.0, 3e-310}, {2, 2}}}}),
      Geometry::multi_polygon({Polygon{ring, {hole, hole}}, Polygon{hole, {}}}),
  };
  for (const auto& g : geometries) {
    std::string out = "17\t";
    append_wkt(out, g);
    EXPECT_EQ(out, "17\t" + to_wkt(g));
    // Appending again extends rather than overwrites.
    append_wkt(out, g);
    EXPECT_EQ(out, "17\t" + to_wkt(g) + to_wkt(g));

    const Geometry back = from_wkt(to_wkt(g));
    EXPECT_TRUE(back == g) << to_wkt(g);
  }
  EXPECT_TRUE(std::signbit(from_wkt(to_wkt(geometries[0])).as_point().x));
}

TEST(Wkt, ParsesPoint) {
  const Geometry g = from_wkt("POINT (3 4)");
  EXPECT_EQ(g.type(), GeomType::kPoint);
  EXPECT_EQ(g.as_point().x, 3.0);
}

TEST(Wkt, ParsesWithIrregularWhitespace) {
  const Geometry g = from_wkt("  LINESTRING(0 0 ,  1 1,2   2)  ");
  EXPECT_EQ(g.num_coords(), 3u);
}

TEST(Wkt, ParsesScientificNotation) {
  const Geometry g = from_wkt("POINT (1.5e3 -2.5e-2)");
  EXPECT_EQ(g.as_point().x, 1500.0);
  EXPECT_EQ(g.as_point().y, -0.025);
}

TEST(Wkt, ParsesMultiPolygon) {
  const Geometry g = from_wkt(
      "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))");
  EXPECT_EQ(g.type(), GeomType::kMultiPolygon);
  EXPECT_EQ(g.as_multi_polygon().parts.size(), 2u);
}

TEST(Wkt, ParsesMultiLineString) {
  const Geometry g = from_wkt("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))");
  EXPECT_EQ(g.type(), GeomType::kMultiLineString);
  EXPECT_EQ(g.num_coords(), 5u);
}

TEST(Wkt, RejectsUnknownTag) {
  EXPECT_THROW(from_wkt("CIRCLE (0 0, 5)"), ParseError);
}

TEST(Wkt, RejectsUnbalancedParens) {
  EXPECT_THROW(from_wkt("POINT (1 2"), ParseError);
  EXPECT_THROW(from_wkt("LINESTRING (0 0, 1 1"), ParseError);
}

TEST(Wkt, RejectsTrailingGarbage) {
  EXPECT_THROW(from_wkt("POINT (1 2) extra"), ParseError);
}

TEST(Wkt, RejectsMissingNumbers) {
  EXPECT_THROW(from_wkt("POINT (1)"), ParseError);
  EXPECT_THROW(from_wkt("POINT (a b)"), ParseError);
}

TEST(Wkt, RejectsOpenRing) {
  // Geometry validation (InvalidArgument) fires through the parser; both
  // error types share the SjcError base.
  EXPECT_THROW(from_wkt("POLYGON ((0 0, 1 0, 1 1))"), SjcError);
}

TEST(Wkt, RejectsEmptyInput) {
  EXPECT_THROW(from_wkt(""), ParseError);
  EXPECT_THROW(from_wkt("   "), ParseError);
}

// ---------------------------------------------------------------------------
// Property: to_wkt / from_wkt round-trips random geometries exactly (our
// writer emits shortest-round-trip doubles).
// ---------------------------------------------------------------------------

class WktRoundTrip : public ::testing::TestWithParam<int> {};

Geometry random_geometry(Rng& rng, int kind) {
  const auto coord = [&rng] {
    return Coord{rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)};
  };
  switch (kind) {
    case 0:
      return Geometry::point(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6));
    case 1: {
      std::vector<Coord> pts;
      const auto n = 2 + rng.next_below(20);
      for (std::uint64_t i = 0; i < n; ++i) pts.push_back(coord());
      return Geometry::line_string(std::move(pts));
    }
    case 2: {
      // Random star-shaped polygon around a center: sorted angles keep the
      // ring simple.
      const Coord c = coord();
      const auto n = 3 + rng.next_below(12);
      std::vector<double> angles;
      for (std::uint64_t i = 0; i < n; ++i) angles.push_back(rng.uniform(0, 6.283));
      std::sort(angles.begin(), angles.end());
      Ring ring;
      for (const double a : angles) {
        const double r = rng.uniform(1.0, 50.0);
        ring.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
      }
      ring.push_back(ring.front());
      return Geometry::polygon(std::move(ring));
    }
    case 3: {
      std::vector<LineString> parts;
      const auto k = 1 + rng.next_below(4);
      for (std::uint64_t p = 0; p < k; ++p) {
        std::vector<Coord> pts{coord(), coord(), coord()};
        parts.push_back(LineString{std::move(pts)});
      }
      return Geometry::multi_line_string(std::move(parts));
    }
    default: {
      std::vector<Polygon> parts;
      const auto k = 1 + rng.next_below(3);
      for (std::uint64_t p = 0; p < k; ++p) {
        const Geometry g = random_geometry(rng, 2);
        parts.push_back(g.as_polygon());
      }
      return Geometry::multi_polygon(std::move(parts));
    }
  }
}

TEST_P(WktRoundTrip, RandomGeometriesRoundTripExactly) {
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const Geometry original = random_geometry(rng, GetParam());
    const Geometry parsed = from_wkt(to_wkt(original));
    EXPECT_TRUE(original == parsed) << to_wkt(original);
  }
}

const char* kind_name(int kind) {
  static const char* kNames[] = {"point", "linestring", "polygon", "multilinestring",
                                 "multipolygon"};
  return kNames[kind];
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WktRoundTrip, ::testing::Range(0, 5),
                         [](const auto& info) { return kind_name(info.param); });

TEST(Wkt, TryFromWktNeverThrowsOnParseErrors) {
  std::string error;
  const auto good = try_from_wkt("POINT (1 2)", &error);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(GeomType::kPoint, good->type());

  for (const char* bad : {"", "BLOB (1 2)", "POINT (1", "POINT (x y)",
                          "POLYGON (())"}) {
    error.clear();
    EXPECT_FALSE(try_from_wkt(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_THROW(from_wkt(bad), ParseError) << bad;
  }
  // The error pointer is optional.
  EXPECT_FALSE(try_from_wkt("BLOB").has_value());
}

}  // namespace
}  // namespace sjc::geom
