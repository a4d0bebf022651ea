#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/time_util.h"
#include "common/unicode.h"
#include "storage/compress.h"
#include "storage/object_store.h"

namespace photon {
namespace {

TEST(StringUtilTest, IsAsciiMatchesScalar) {
  Rng rng(1);
  for (int trial = 0; trial < 200; trial++) {
    int len = static_cast<int>(rng.Uniform(0, 100));
    std::string s(len, 0);
    bool force_non_ascii = rng.NextBool(0.5) && len > 0;
    for (int i = 0; i < len; i++) s[i] = static_cast<char>(rng.Uniform(1, 127));
    if (force_non_ascii) {
      s[rng.Uniform(0, len - 1)] = static_cast<char>(0x80 + rng.Uniform(0, 100));
    }
    EXPECT_EQ(IsAscii(s.data(), len), IsAsciiScalar(s.data(), len))
        << "len=" << len;
    EXPECT_EQ(IsAscii(s.data(), len), !force_non_ascii);
  }
}

TEST(StringUtilTest, AsciiCaseMapping) {
  std::string in = "Hello, World! 123 [\\]^_`{|}~";
  std::string up(in.size(), 0), down(in.size(), 0);
  AsciiToUpper(in.data(), up.data(), in.size());
  AsciiToLower(in.data(), down.data(), in.size());
  EXPECT_EQ(up, "HELLO, WORLD! 123 [\\]^_`{|}~");
  EXPECT_EQ(down, "hello, world! 123 [\\]^_`{|}~");
}

TEST(StringUtilTest, SqlLike) {
  EXPECT_TRUE(SqlLikeMatch("hello", "hello"));
  EXPECT_TRUE(SqlLikeMatch("hello", "h%"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%llo"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%ell%"));
  EXPECT_TRUE(SqlLikeMatch("hello", "h_llo"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%"));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_FALSE(SqlLikeMatch("", "_"));
  EXPECT_FALSE(SqlLikeMatch("hello", "h_llo_"));
  EXPECT_FALSE(SqlLikeMatch("hello", "ell"));
  EXPECT_TRUE(SqlLikeMatch("a%b", "a\x25"
                                  "b"));  // literal text with %
  EXPECT_TRUE(SqlLikeMatch("special offers include", "%special%offers%"));
  EXPECT_FALSE(SqlLikeMatch("special requests", "%special%offers%"));
}

TEST(UnicodeTest, DecodeEncodeRoundTrip) {
  for (uint32_t cp : {0x41u, 0x7Fu, 0x80u, 0x7FFu, 0x800u, 0xFFFFu, 0x10000u,
                      0x10FFFFu, 0x3B1u, 0x430u}) {
    char buf[4];
    int n = Utf8Encode(cp, buf);
    uint32_t back;
    EXPECT_EQ(Utf8Decode(buf, n, &back), n);
    EXPECT_EQ(back, cp);
  }
}

TEST(UnicodeTest, RejectsInvalidSequences) {
  uint32_t cp;
  // Lone continuation byte.
  EXPECT_EQ(Utf8Decode("\x80", 1, &cp), 0);
  // Truncated 2-byte sequence.
  EXPECT_EQ(Utf8Decode("\xC3", 1, &cp), 0);
  // Overlong encoding of '/'.
  EXPECT_EQ(Utf8Decode("\xC0\xAF", 2, &cp), 0);
}

TEST(UnicodeTest, CaseMappingCoverage) {
  EXPECT_EQ(Utf8ToUpper("caf\xC3\xA9"), "CAF\xC3\x89");          // é -> É
  EXPECT_EQ(Utf8ToLower("CAF\xC3\x89"), "caf\xC3\xA9");
  EXPECT_EQ(Utf8ToUpper("\xCE\xB1\xCE\xB2\xCF\x82"),
            "\xCE\x91\xCE\x92\xCE\xA3");  // αβς -> ΑΒΣ (final sigma)
  EXPECT_EQ(Utf8ToUpper("\xD0\xBC\xD0\xB8\xD1\x80"),
            "\xD0\x9C\xD0\x98\xD0\xA0");  // мир -> МИР
  // Unmapped codepoints pass through.
  EXPECT_EQ(Utf8ToUpper("\xE4\xB8\xAD"), "\xE4\xB8\xAD");  // 中
}

TEST(UnicodeTest, Utf8Length) {
  EXPECT_EQ(Utf8Length("abc"), 3);
  EXPECT_EQ(Utf8Length("caf\xC3\xA9"), 4);
  EXPECT_EQ(Utf8Length(""), 0);
  EXPECT_EQ(Utf8Length("\xF0\x9F\x98\x80"), 1);  // emoji, 4 bytes
}

TEST(TimeUtilTest, CivilConversionRoundTrip) {
  for (int32_t days : {0, 1, -1, 365, 19358, -719162, 2932896}) {
    CivilDate c = DaysToCivil(days);
    EXPECT_EQ(CivilToDays(c.year, c.month, c.day), days);
  }
  CivilDate epoch = DaysToCivil(0);
  EXPECT_EQ(epoch.year, 1970);
  EXPECT_EQ(epoch.month, 1);
  EXPECT_EQ(epoch.day, 1);
}

TEST(TimeUtilTest, ParseAndFormat) {
  int32_t days;
  ASSERT_TRUE(ParseDate("2023-06-15", &days));
  EXPECT_EQ(FormatDate(days), "2023-06-15");
  EXPECT_EQ(ExtractYear(days), 2023);
  EXPECT_EQ(ExtractMonth(days), 6);
  EXPECT_EQ(ExtractDay(days), 15);
  EXPECT_FALSE(ParseDate("not-a-date", &days));
  EXPECT_FALSE(ParseDate("2023-13-01", &days));
}

TEST(TimeUtilTest, LeapYears) {
  int32_t days;
  ASSERT_TRUE(ParseDate("2000-02-29", &days));
  EXPECT_EQ(FormatDate(days), "2000-02-29");
  EXPECT_EQ(FormatDate(days + 1), "2000-03-01");
  // 1900 is not a leap year.
  ASSERT_TRUE(ParseDate("1900-02-28", &days));
  EXPECT_EQ(FormatDate(days + 1), "1900-03-01");
}

TEST(TimeUtilTest, AddMonthsClampsDay) {
  int32_t days;
  ASSERT_TRUE(ParseDate("2023-01-31", &days));
  EXPECT_EQ(FormatDate(AddMonths(days, 1)), "2023-02-28");
  EXPECT_EQ(FormatDate(AddMonths(days, 3)), "2023-04-30");
  EXPECT_EQ(FormatDate(AddMonths(days, -1)), "2022-12-31");
  EXPECT_EQ(FormatDate(AddMonths(days, 12)), "2024-01-31");
}

TEST(HashTest, BytesHashStability) {
  // Same bytes -> same hash; differing bytes -> (overwhelmingly) different.
  std::string a = "the quick brown fox";
  std::string b = "the quick brown foy";
  EXPECT_EQ(HashBytes(a.data(), a.size()), HashBytes(a.data(), a.size()));
  EXPECT_NE(HashBytes(a.data(), a.size()), HashBytes(b.data(), b.size()));
  EXPECT_NE(HashBytes(a.data(), 5), HashBytes(a.data(), 6));
}

TEST(CompressTest, RoundTripRandomAndRepetitive) {
  Rng rng(2);
  // Highly compressible input.
  std::string rep;
  for (int i = 0; i < 1000; i++) rep += "abcabcabc-";
  std::string frame = Compress(rep, Codec::kLz);
  EXPECT_LT(frame.size(), rep.size() / 3);
  Result<std::string> back = Decompress(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, rep);

  // Random (incompressible) input still round-trips.
  for (int trial = 0; trial < 20; trial++) {
    int len = static_cast<int>(rng.Uniform(0, 5000));
    std::string data(len, 0);
    for (int i = 0; i < len; i++) data[i] = static_cast<char>(rng.Next());
    Result<std::string> rt = Decompress(Compress(data, Codec::kLz));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(*rt, data) << "len=" << len;
    // kNone codec too.
    rt = Decompress(Compress(data, Codec::kNone));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(*rt, data);
  }
}

TEST(CompressTest, OverlappingMatchesRle) {
  std::string rle(10000, 'x');
  std::string frame = Compress(rle, Codec::kLz);
  EXPECT_LT(frame.size(), 200u);
  Result<std::string> back = Decompress(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rle);
}

TEST(CompressTest, RejectsCorruptFrames) {
  std::string frame = Compress("hello world hello world", Codec::kLz);
  std::string truncated = frame.substr(0, frame.size() / 2);
  EXPECT_FALSE(Decompress(truncated).ok());
  EXPECT_FALSE(Decompress("").ok());
}

TEST(CompressTest, RejectsSizeBombBeforeAllocating) {
  // 13 bytes: codec kLz, a varint claiming 2^62 decoded bytes, and a
  // three-byte end-of-stream sequence. The claim is far beyond what three
  // payload bytes can expand to, so it must fail without allocating.
  std::string frame(1, static_cast<char>(Codec::kLz));
  uint64_t claim = uint64_t{1} << 62;
  while (claim >= 0x80) {
    frame.push_back(static_cast<char>((claim & 0x7F) | 0x80));
    claim >>= 7;
  }
  frame.push_back(static_cast<char>(claim));
  frame.append(std::string("\0\0\0", 3));
  ASSERT_EQ(frame.size(), 13u);
  Result<std::string> out = Decompress(frame);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIoError()) << out.status().ToString();
  EXPECT_FALSE(DecodedSize(frame).ok());
}

TEST(CompressTest, RejectsSequencesPastDecodedSize) {
  // Claims 8 decoded bytes; 4 literals then a match extended to 219 bytes
  // would run far past them.
  std::string match_bomb = {static_cast<char>(Codec::kLz), 8,
                            static_cast<char>(0x4F), 'a', 'b', 'c', 'd',
                            4, 0, static_cast<char>(200)};
  Result<std::string> out = Decompress(match_bomb);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIoError()) << out.status().ToString();

  // Claims 2 decoded bytes but carries 4 literals.
  std::string literal_overrun = {static_cast<char>(Codec::kLz), 2,
                                 static_cast<char>(0x40), 'a', 'b', 'c',
                                 'd', 0, 0};
  out = Decompress(literal_overrun);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIoError()) << out.status().ToString();

  // An offset reaching before the start of the output.
  std::string bad_offset = {static_cast<char>(Codec::kLz), 8,
                            static_cast<char>(0x40), 'a', 'b', 'c', 'd',
                            9, 0};
  EXPECT_FALSE(Decompress(bad_offset).ok());
}

TEST(CompressTest, ReusedBufferDecodesEveryFrame) {
  // One DecodeBuffer across frames of shrinking and growing sizes, with
  // literal runs around the 16-byte wild copy and matches at offsets on
  // both sides of the 8-byte step.
  Rng rng(11);
  DecodeBuffer buf;
  for (int len : {70000, 5, 0, 17, 4096, 16, 15, 100000, 31}) {
    std::string data(len, 0);
    for (int i = 0; i < len; i++) {
      int period = 1 + static_cast<int>(rng.Uniform(0, 12));
      data[i] = i >= period && rng.Uniform(0, 4) != 0
                    ? data[i - period]
                    : static_cast<char>(rng.Next());
    }
    for (Codec codec : {Codec::kLz, Codec::kNone}) {
      ASSERT_TRUE(Decompress(Compress(data, codec), &buf).ok());
      EXPECT_EQ(buf.view(), data) << "len=" << len;
    }
  }
}

TEST(ObjectStoreTest, PutGetListDelete) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("a/1", "one").ok());
  ASSERT_TRUE(store.Put("a/2", "two").ok());
  ASSERT_TRUE(store.Put("b/1", "three").ok());
  Result<std::string> got = store.Get("a/2");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "two");
  EXPECT_FALSE(store.Get("missing").ok());
  EXPECT_EQ(store.List("a/").size(), 2u);
  EXPECT_EQ(store.DeletePrefix("a/"), 2);
  EXPECT_EQ(store.List("a/").size(), 0u);
  EXPECT_TRUE(store.Exists("b/1"));
}

TEST(ObjectStoreTest, FailureInjection) {
  ObjectStore store;
  store.FailNextPuts(1);
  EXPECT_TRUE(store.Put("x", "1").IsIoError());
  EXPECT_TRUE(store.Put("x", "1").ok());
}

}  // namespace
}  // namespace photon
