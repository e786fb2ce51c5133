#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "io/svg.h"
#include "io/text_format.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm2.h"

namespace wcds::io {
namespace {

TEST(TextFormat, PointsRoundTrip) {
  const std::vector<geom::Point> points{
      {0.0, 0.0}, {1.25, -3.5}, {0.1234567890123456, 7.0}};
  std::stringstream ss;
  write_points(ss, points);
  const auto back = read_points(ss);
  ASSERT_EQ(back.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].x, points[i].x);
    EXPECT_DOUBLE_EQ(back[i].y, points[i].y);
  }
}

TEST(TextFormat, EmptyPointsRoundTrip) {
  std::stringstream ss;
  write_points(ss, {});
  EXPECT_TRUE(read_points(ss).empty());
}

TEST(TextFormat, GraphRoundTrip) {
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  std::stringstream ss;
  write_graph(ss, g);
  const auto back = read_graph(ss);
  EXPECT_EQ(back.node_count(), g.node_count());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(TextFormat, RejectsBadHeader) {
  std::stringstream ss("nonsense v9\n3\n");
  EXPECT_THROW(read_points(ss), std::runtime_error);
  std::stringstream sg("wcds-points v1\n2\n0 0\n1 1\n");
  EXPECT_THROW(read_graph(sg), std::runtime_error);
}

TEST(TextFormat, RejectsTruncation) {
  std::stringstream ss("wcds-points v1\n3\n0 0\n1 1\n");
  EXPECT_THROW(read_points(ss), std::runtime_error);
  std::stringstream sg("wcds-graph v1\n4 2\n0 1\n");
  EXPECT_THROW(read_graph(sg), std::runtime_error);
}

// The points reader accepts any double; a coordinate too large for the UDG
// grid fails with a named error once the graph is built.
TEST(TextFormat, HugeCoordinateFailsNamedWhenBuilt) {
  std::stringstream ss("wcds-points v1\n3\n0 0\n1e300 0.5\n0.5 0\n");
  const auto points = read_points(ss);
  ASSERT_EQ(points.size(), 3u);
  try {
    (void)udg::build_udg(points);
    ADD_FAILURE() << "build_udg accepted x = 1e300";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 1"), std::string::npos) << what;
    EXPECT_NE(what.find("outside the int32 cell grid"), std::string::npos)
        << what;
  }
}

TEST(TextFormat, FileRoundTrip) {
  const auto inst = testing::connected_udg(60, 8.0, 1);
  const std::string ppath = ::testing::TempDir() + "/wcds_points.txt";
  const std::string gpath = ::testing::TempDir() + "/wcds_graph.txt";
  save_points(ppath, inst.points);
  save_graph(gpath, inst.g);
  EXPECT_EQ(load_points(ppath).size(), inst.points.size());
  EXPECT_EQ(load_graph(gpath).edges(), inst.g.edges());
}

TEST(TextFormat, MissingFileThrows) {
  EXPECT_THROW(load_points("/nonexistent/p.txt"), std::runtime_error);
  EXPECT_THROW(load_graph("/nonexistent/g.txt"), std::runtime_error);
}

TEST(Svg, RendersAllElementClasses) {
  const auto inst = testing::connected_udg(80, 9.0, 2);
  const auto out = core::algorithm2(inst.g);
  std::stringstream ss;
  write_svg(ss, inst.points, inst.g, out.result);
  const std::string svg = ss.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("circle"), std::string::npos);
  EXPECT_NE(svg.find("line"), std::string::npos);
  if (!out.result.additional_dominators.empty()) {
    EXPECT_NE(svg.find("rect x="), std::string::npos);  // additional doms
  }
}

TEST(Svg, BareUdgWithoutWcds) {
  const auto inst = testing::connected_udg(40, 8.0, 3);
  std::stringstream ss;
  write_svg(ss, inst.points, inst.g, core::WcdsResult{});
  EXPECT_NE(ss.str().find("line"), std::string::npos);
}

TEST(Svg, SizeMismatchThrows) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  std::vector<geom::Point> two{{0, 0}, {1, 1}};
  std::stringstream ss;
  EXPECT_THROW(write_svg(ss, two, g, core::WcdsResult{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wcds::io
