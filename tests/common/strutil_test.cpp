#include "src/common/strutil.hpp"

#include <gtest/gtest.h>

namespace kconv {
namespace {

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("x=%d y=%.2f s=%s", 3, 1.5, "hi"), "x=3 y=1.50 s=hi");
}

TEST(Strf, EmptyFormat) { EXPECT_EQ(strf("%s", ""), ""); }

TEST(Strf, LongOutput) {
  const std::string s = strf("%0512d", 7);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '7');
}

TEST(Join, Basics) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(HumanBytes, Units) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KiB");
  EXPECT_EQ(human_bytes(3.5 * 1024 * 1024), "3.5 MiB");
  EXPECT_EQ(human_bytes(2.0 * 1024 * 1024 * 1024), "2.0 GiB");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain text/ok"), "plain text/ok");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\dir"), "C:\\\\dir");
  EXPECT_EQ(json_escape("a\tb\nc\rd"), "a\\u0009b\\u000ac\\u000dd");
  EXPECT_EQ(json_escape(std::string("\0\x1f\x20", 3)),
            "\\u0000\\u001f ");
  // Bytes at or above 0x20, UTF-8 included, pass through unchanged.
  EXPECT_EQ(json_escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

}  // namespace
}  // namespace kconv
