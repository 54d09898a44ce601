#include "src/trace/trace_io.h"

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/testing/temp_dir.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

Trace SampleTrace() {
  TraceBuilder b;
  b.Open(0.01, 1, 100, 4096, AccessMode::kReadOnly, 5)
      .Seek(0.02, 1, 100, 1024, 2048)
      .Close(0.03, 1, 100, 4096, 4096)
      .Create(0.04, 2, 101, AccessMode::kWriteOnly, 5)
      .Close(0.05, 2, 101, 512, 512)
      .Unlink(0.06, 101, 5)
      .Truncate(0.07, 100, 128, 5)
      .Execve(0.08, 102, 8192, 5);
  Trace t = b.Build();
  t.header().machine = "testbox";
  t.header().description = "sample";
  return t;
}

// Random record stream for round-trip property tests.
Trace RandomTrace(uint64_t seed, size_t n) {
  Rng rng(seed);
  Trace t(TraceHeader{.machine = "rand", .description = "fuzz"});
  int64_t time_us = 0;
  for (size_t i = 0; i < n; ++i) {
    time_us += rng.UniformInt(0, 1'000'000);
    const SimTime now = SimTime::FromMicros(time_us);
    const auto oid = static_cast<OpenId>(rng.UniformInt(1, 1000));
    const auto file = static_cast<FileId>(rng.UniformInt(1, 500));
    const auto user = static_cast<UserId>(rng.UniformInt(0, 50));
    const auto mode = static_cast<AccessMode>(rng.UniformInt(0, 2));
    const auto big = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
    switch (rng.UniformInt(0, 6)) {
      case 0:
        t.Append(MakeOpen(now, oid, file, user, mode, big, big / 2));
        break;
      case 1:
        t.Append(MakeCreate(now, oid, file, user, mode));
        break;
      case 2:
        t.Append(MakeClose(now, oid, file, big / 2, big));
        break;
      case 3:
        t.Append(MakeSeek(now, oid, file, big / 3, big));
        break;
      case 4:
        t.Append(MakeUnlink(now, file, user));
        break;
      case 5:
        t.Append(MakeTruncate(now, file, user, big));
        break;
      default:
        t.Append(MakeExecve(now, file, user, big));
        break;
    }
  }
  return t;
}

TEST(BinaryTraceIo, RoundTripSample) {
  const Trace original = SampleTrace();
  std::stringstream buf;
  WriteBinaryTrace(buf, original);
  auto loaded = ReadBinaryTrace(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value(), original);
}

TEST(BinaryTraceIo, EmptyTraceRoundTrips) {
  Trace empty(TraceHeader{.machine = "m", .description = ""});
  std::stringstream buf;
  WriteBinaryTrace(buf, empty);
  auto loaded = ReadBinaryTrace(buf);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 0u);
  EXPECT_EQ(loaded.value().header().machine, "m");
}

TEST(BinaryTraceIo, StreamingWriterCountsRecords) {
  std::stringstream buf;
  BinaryTraceWriter writer(buf, TraceHeader{});
  writer.Append(MakeUnlink(SimTime::FromSeconds(1), 1, 1));
  writer.Append(MakeUnlink(SimTime::FromSeconds(2), 2, 1));
  EXPECT_EQ(writer.records_written(), 2u);
  writer.Finish();
}

TEST(BinaryTraceIo, StreamingReaderDeliversInOrder) {
  const Trace original = SampleTrace();
  std::stringstream buf;
  WriteBinaryTrace(buf, original);
  BinaryTraceReader reader(buf);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.header().machine, "testbox");
  TraceRecord r;
  size_t i = 0;
  while (reader.Next(&r)) {
    ASSERT_LT(i, original.size());
    EXPECT_EQ(r, original.records()[i]);
    ++i;
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status().message();
  EXPECT_EQ(i, original.size());
}

TEST(BinaryTraceIo, HeaderDeclaresRecordCount) {
  const Trace original = SampleTrace();
  std::stringstream buf;
  WriteBinaryTrace(buf, original);
  BinaryTraceReader reader(buf);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.declared_record_count(), static_cast<int64_t>(original.size()));
}

TEST(BinaryTraceIo, StreamingWriterDeclaresUnknownCount) {
  std::stringstream buf;
  {
    BinaryTraceWriter writer(buf, TraceHeader{});  // count not known up front
    writer.Append(MakeUnlink(SimTime::FromSeconds(1), 1, 1));
    writer.Finish();
  }
  BinaryTraceReader reader(buf);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.declared_record_count(), -1);
  TraceRecord r;
  EXPECT_TRUE(reader.Next(&r));
  EXPECT_FALSE(reader.Next(&r));
  EXPECT_TRUE(reader.status().ok());
}

TEST(BinaryTraceIo, ReadsVersion1FilesWithoutCount) {
  // Hand-encoded v1 stream: old magic, machine "m", empty description, end
  // sentinel — no record-count varint.
  const std::string v1 = std::string("BSDTRC1\n") + '\x01' + 'm' + '\x00' + '\x00';
  std::stringstream buf(v1);
  auto loaded = ReadBinaryTrace(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().header().machine, "m");
  EXPECT_EQ(loaded.value().size(), 0u);
}

TEST(BinaryTraceIo, RejectsBadMagic) {
  std::stringstream buf("not a trace at all");
  auto loaded = ReadBinaryTrace(buf);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST(BinaryTraceIo, RejectsTruncatedHeader) {
  const Trace original = SampleTrace();
  std::stringstream buf;
  WriteBinaryTrace(buf, original);
  std::string data = buf.str();
  std::stringstream cut(data.substr(0, 9));  // magic + 1 byte
  auto loaded = ReadBinaryTrace(cut);
  EXPECT_FALSE(loaded.ok());
}

TEST(BinaryTraceIo, RejectsTruncatedBody) {
  const Trace original = SampleTrace();
  std::stringstream buf;
  WriteBinaryTrace(buf, original);
  std::string data = buf.str();
  // Drop the trailing sentinel plus a few bytes of the last record.
  std::stringstream cut(data.substr(0, data.size() - 4));
  auto loaded = ReadBinaryTrace(cut);
  EXPECT_FALSE(loaded.ok());
}

TEST(BinaryTraceIo, RejectsCorruptEventType) {
  const Trace original = SampleTrace();
  std::stringstream buf;
  WriteBinaryTrace(buf, original);
  std::string data = buf.str();
  // The first record's type byte follows the header; smash it.
  // magic + len+machine + len+desc + record count varint
  const size_t header_size = 8 + 1 + 7 + 1 + 6 + 1;
  data[header_size] = static_cast<char>(0x7E);
  std::stringstream bad(data);
  auto loaded = ReadBinaryTrace(bad);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown event type"), std::string::npos);
}

TEST(TextTraceIo, RoundTripSample) {
  const Trace original = SampleTrace();
  std::stringstream buf;
  WriteTextTrace(buf, original);
  auto loaded = ReadTextTrace(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().header().machine, "testbox");
  ASSERT_EQ(loaded.value().size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    // Text timestamps are microsecond-precision; compare fieldwise.
    EXPECT_EQ(loaded.value().records()[i], original.records()[i]) << "record " << i;
  }
}

TEST(TextTraceIo, RejectsGarbageLine) {
  std::stringstream buf("0.5\tfrobnicate\tx=1\n");
  auto loaded = ReadTextTrace(buf);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
}

TEST(TextTraceIo, RejectsBadTimestamp) {
  std::stringstream buf("abc\topen\toid=1\tfile=2\tuser=3\tmode=r\tsize=0\tpos=0\n");
  EXPECT_FALSE(ReadTextTrace(buf).ok());
}

TEST(TextTraceIo, RejectsMissingFields) {
  std::stringstream buf("1.0\tclose\toid=1\n");
  EXPECT_FALSE(ReadTextTrace(buf).ok());
}

TEST(TextTraceIo, SkipsBlankLinesAndComments) {
  std::stringstream buf("# machine foo\n\n# description a b c\n1.0\tunlink\tfile=5\tuser=2\n");
  auto loaded = ReadTextTrace(buf);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().header().machine, "foo");
  EXPECT_EQ(loaded.value().header().description, "a b c");
  EXPECT_EQ(loaded.value().size(), 1u);
}

TEST(TraceFileIo, SaveAndLoad) {
  const std::string path = TestTempPath("bsdtrace_io_test.trace");
  const Trace original = SampleTrace();
  ASSERT_TRUE(SaveTrace(path, original).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), original);
  std::remove(path.c_str());
}

TEST(TraceFileIo, LoadMissingFileFails) {
  auto loaded = LoadTrace("/nonexistent/dir/nothing.trace");
  EXPECT_FALSE(loaded.ok());
}

TEST(TraceFileIo, SaveToBadPathFails) {
  EXPECT_FALSE(SaveTrace("/nonexistent/dir/out.trace", SampleTrace()).ok());
}

// Property: binary round trip is the identity for arbitrary record streams.
class BinaryRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryRoundTripProperty, Identity) {
  const Trace original = RandomTrace(GetParam(), 500);
  std::stringstream buf;
  WriteBinaryTrace(buf, original);
  auto loaded = ReadBinaryTrace(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value(), original);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property: the binary encoding is compact (well under the naive struct size;
// the paper cared about trace volume).
TEST(BinaryTraceIo, EncodingIsCompact) {
  const Trace t = RandomTrace(99, 2000);
  std::stringstream buf;
  WriteBinaryTrace(buf, t);
  EXPECT_LT(buf.str().size(), t.size() * sizeof(TraceRecord) / 2);
}

}  // namespace
}  // namespace bsdtrace
