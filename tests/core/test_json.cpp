#include "core/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/error.hpp"

namespace json = fx::core::json;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(json::parse("-12").as_number(), -12.0);
  EXPECT_DOUBLE_EQ(json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested) {
  const auto v = json::parse(
      R"({"name": "run", "cases": [{"x": 1, "ok": true}, {"x": 2.5}],
          "empty": [], "none": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "run");
  const auto& cases = v.find("cases")->as_array();
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_DOUBLE_EQ(*cases[0].number_at("x"), 1.0);
  EXPECT_TRUE(cases[0].find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(*cases[1].number_at("x"), 2.5);
  EXPECT_TRUE(v.find("empty")->as_array().empty());
  EXPECT_TRUE(v.find("none")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_FALSE(v.number_at("name").has_value());
}

TEST(Json, StringEscapes) {
  const auto v = json::parse(R"("a\"b\\c\n\tA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA");
  // Round trip: escapes re-emitted on dump, re-parsed to the same value.
  EXPECT_EQ(json::parse(v.dump()).as_string(), v.as_string());
}

TEST(Json, RoundTripsThroughDump) {
  json::Object o;
  o["wall_s"] = 1.25;
  o["count"] = std::uint64_t{123456789};
  o["label"] = "fft_z";
  o["flags"] = json::Array{json::Value(true), json::Value(nullptr)};
  const json::Value v{std::move(o)};

  const auto back = json::parse(v.dump());
  EXPECT_DOUBLE_EQ(*back.number_at("wall_s"), 1.25);
  EXPECT_DOUBLE_EQ(*back.number_at("count"), 123456789.0);
  EXPECT_EQ(back.find("label")->as_string(), "fft_z");

  const auto pretty = json::parse(v.dump_pretty());
  EXPECT_DOUBLE_EQ(*pretty.number_at("wall_s"), 1.25);
}

TEST(Json, IntegersPrintExactly) {
  json::Object o;
  o["n"] = std::uint64_t{9007199254740992ULL};  // 2^53, still exact
  const std::string s = json::Value{std::move(o)}.dump();
  EXPECT_NE(s.find("9007199254740992"), std::string::npos);
  EXPECT_EQ(s.find("e+"), std::string::npos);
}

TEST(Json, DeterministicKeyOrder) {
  json::Object o;
  o["zeta"] = 1;
  o["alpha"] = 2;
  const std::string s = json::Value{std::move(o)}.dump();
  EXPECT_LT(s.find("alpha"), s.find("zeta"));
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(json::parse(""), fx::core::Error);
  EXPECT_THROW(json::parse("{"), fx::core::Error);
  EXPECT_THROW(json::parse("[1,]"), fx::core::Error);
  EXPECT_THROW(json::parse("\"unterminated"), fx::core::Error);
  EXPECT_THROW(json::parse("tru"), fx::core::Error);
  EXPECT_THROW(json::parse("1 2"), fx::core::Error);
  EXPECT_THROW(json::parse("nan"), fx::core::Error);
}

TEST(Json, KindMismatchThrows) {
  const auto v = json::parse("42");
  EXPECT_THROW((void)v.as_string(), fx::core::Error);
  EXPECT_THROW((void)v.as_array(), fx::core::Error);
  EXPECT_THROW((void)json::parse("[]").as_number(), fx::core::Error);
}

TEST(Json, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "fx_json_test";
  const auto path = (dir / "sub" / "report.json").string();
  json::Object o;
  o["ok"] = true;
  json::save_file(json::Value{std::move(o)}, path);
  const auto back = json::load_file(path);
  EXPECT_TRUE(back.find("ok")->as_bool());
  std::filesystem::remove_all(dir);
  EXPECT_THROW(json::load_file(path), fx::core::Error);
}
