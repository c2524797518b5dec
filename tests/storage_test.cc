// Tests for the storage substrate: coding, WAL framing (including torn
// tails and corruption), record round-trips, snapshots, and full
// repository recovery with processor restoration.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/storage/coding.h"
#include "stq/storage/records.h"
#include "stq/storage/repository.h"
#include "stq/storage/snapshot.h"
#include "stq/storage/wal.h"

namespace stq {
namespace {

// Creates a fresh scratch directory for each test.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "stq_storage_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string cmd = "rm -rf '" + dir_ + "' && mkdir -p '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }
  std::string dir_;
};

// --- Coding -------------------------------------------------------------------

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed32(&buf, 0);
  size_t offset = 0;
  uint32_t v = 0;
  ASSERT_TRUE(GetFixed32(buf, &offset, &v));
  EXPECT_EQ(v, 0xDEADBEEFu);
  ASSERT_TRUE(GetFixed32(buf, &offset, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_FALSE(GetFixed32(buf, &offset, &v));  // exhausted
}

TEST(CodingTest, Fixed64AndDoubleRoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutDouble(&buf, -3.14159);
  PutDouble(&buf, 0.0);
  PutByte(&buf, 0x7F);
  size_t offset = 0;
  uint64_t u = 0;
  double d = 0.0;
  uint8_t b = 0;
  ASSERT_TRUE(GetFixed64(buf, &offset, &u));
  EXPECT_EQ(u, 0x0123456789ABCDEFull);
  ASSERT_TRUE(GetDouble(buf, &offset, &d));
  EXPECT_DOUBLE_EQ(d, -3.14159);
  ASSERT_TRUE(GetDouble(buf, &offset, &d));
  EXPECT_DOUBLE_EQ(d, 0.0);
  ASSERT_TRUE(GetByte(buf, &offset, &b));
  EXPECT_EQ(b, 0x7F);
}

TEST(CodingTest, UnderflowFails) {
  std::string buf = "abc";
  size_t offset = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetFixed64(buf, &offset, &v));
}

// --- WAL framing ------------------------------------------------------------------

TEST_F(StorageTest, WalRoundTrip) {
  const std::string path = Path("log");
  LogWriter writer;
  ASSERT_TRUE(writer.Open(path, true).ok());
  ASSERT_TRUE(writer.Append(1, "hello").ok());
  ASSERT_TRUE(writer.Append(2, "").ok());
  ASSERT_TRUE(writer.Append(3, std::string(5000, 'x')).ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());

  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint8_t type = 0;
  std::string payload;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_FALSE(eof);
  EXPECT_EQ(type, 1);
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_EQ(type, 2);
  EXPECT_TRUE(payload.empty());
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_EQ(type, 3);
  EXPECT_EQ(payload.size(), 5000u);
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(StorageTest, WalAppendsAcrossReopen) {
  const std::string path = Path("log");
  {
    LogWriter writer;
    ASSERT_TRUE(writer.Open(path, true).ok());
    ASSERT_TRUE(writer.Append(1, "first").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    LogWriter writer;
    ASSERT_TRUE(writer.Open(path, false).ok());  // append mode
    ASSERT_TRUE(writer.Append(2, "second").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint8_t type = 0;
  std::string payload;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_EQ(payload, "first");
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_EQ(payload, "second");
}

TEST_F(StorageTest, TornTailIsCleanEof) {
  const std::string path = Path("log");
  {
    LogWriter writer;
    ASSERT_TRUE(writer.Open(path, true).ok());
    ASSERT_TRUE(writer.Append(1, "complete record").ok());
    ASSERT_TRUE(writer.Append(2, "this one will be torn").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Simulate a crash mid-append: truncate the last few bytes.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(std::fclose(f), 0);
  ASSERT_EQ(truncate(path.c_str(), size - 6), 0);

  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint8_t type = 0;
  std::string payload;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_FALSE(eof);
  EXPECT_EQ(payload, "complete record");
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_TRUE(eof);  // torn record ignored
}

TEST_F(StorageTest, CorruptedPayloadIsSurfaced) {
  const std::string path = Path("log");
  {
    LogWriter writer;
    ASSERT_TRUE(writer.Open(path, true).ok());
    ASSERT_TRUE(writer.Append(1, "sensitive payload bytes").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Flip one payload byte in the middle of the frame.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 12, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 12, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  ASSERT_EQ(std::fclose(f), 0);

  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint8_t type = 0;
  std::string payload;
  bool eof = false;
  EXPECT_TRUE(reader.ReadRecord(&type, &payload, &eof).IsCorruption());
}

TEST_F(StorageTest, ImplausibleLengthIsCorruption) {
  const std::string path = Path("log");
  {
    // Hand-craft a frame with an absurd length field.
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const unsigned char header[8] = {0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F};
    std::fwrite(header, 1, sizeof(header), f);
    ASSERT_EQ(std::fclose(f), 0);
  }
  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint8_t type = 0;
  std::string payload;
  bool eof = false;
  EXPECT_TRUE(reader.ReadRecord(&type, &payload, &eof).IsCorruption());
}

// --- Block-buffered LogReader ----------------------------------------------------

constexpr size_t kFrameOverhead = 9;  // crc + length + type
constexpr size_t kBlock = LogReader::kBlockSize;

// A payload of `n` bytes that differs per record.
std::string TestPayload(size_t record, size_t n) {
  std::string payload(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<char>(record * 131 + i * 7);
  }
  return payload;
}

// Writes one record per entry of `sizes` (type = index % 250 + 1) and
// returns each frame's start offset, plus the file size at the end.
std::vector<uint64_t> WriteTestLog(const std::string& path,
                                   const std::vector<size_t>& sizes) {
  LogWriter writer;
  EXPECT_TRUE(writer.Open(path, true).ok());
  std::vector<uint64_t> starts;
  uint64_t offset = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    starts.push_back(offset);
    const uint8_t type = static_cast<uint8_t>(i % 250 + 1);
    EXPECT_TRUE(writer.Append(type, TestPayload(i, sizes[i])).ok());
    offset += kFrameOverhead + sizes[i];
  }
  starts.push_back(offset);
  EXPECT_TRUE(writer.Close().ok());
  return starts;
}

// Reads every record back and checks each, and the offsets the reader
// reports, against what WriteTestLog wrote.
void ExpectTestLog(const std::string& path, const std::vector<size_t>& sizes,
                   const std::vector<uint64_t>& starts) {
  LogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint8_t type = 0;
  std::string payload;
  bool eof = false;
  for (size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok()) << i;
    ASSERT_FALSE(eof) << i;
    EXPECT_EQ(type, static_cast<uint8_t>(i % 250 + 1)) << i;
    ASSERT_EQ(payload, TestPayload(i, sizes[i])) << i;
    EXPECT_EQ(reader.last_record_offset(), starts[i]) << i;
    EXPECT_EQ(reader.valid_offset(), starts[i + 1]) << i;
  }
  ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
  EXPECT_TRUE(eof);
  EXPECT_EQ(reader.records_read(), sizes.size());
  EXPECT_EQ(reader.valid_offset(), starts.back());
}

TEST_F(StorageTest, WalFramesStraddleBlockBoundaries) {
  // The first frame ends 4 bytes before the block boundary, so the next
  // header is split across it; a run of small frames then crosses the
  // boundary at every split point of a header and a body, a payload
  // three blocks long follows, and small frames after it cross the next
  // boundaries.
  std::vector<size_t> sizes = {kBlock - kFrameOverhead - 4};
  for (size_t n = 0; n < 24; ++n) sizes.push_back(n);
  sizes.push_back(3 * kBlock + 123);
  for (size_t i = 0; i < 3000; ++i) sizes.push_back(i % 97);
  const std::vector<uint64_t> starts = WriteTestLog(Path("log"), sizes);
  ASSERT_GT(starts.back(), 5 * kBlock);
  ExpectTestLog(Path("log"), sizes, starts);
}

TEST_F(StorageTest, WalStraddlesEveryHeaderAndBodySplitPoint) {
  // One log per split point: the frame after a filler crosses the block
  // boundary after `split` of its bytes.
  for (size_t split = 0; split <= kFrameOverhead + 16; ++split) {
    const std::vector<size_t> sizes = {kBlock - kFrameOverhead - split, 16, 5};
    const std::vector<uint64_t> starts = WriteTestLog(Path("log"), sizes);
    ASSERT_EQ(starts[1], kBlock - split);
    ExpectTestLog(Path("log"), sizes, starts);
    if (HasFatalFailure()) return;
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::string bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  EXPECT_EQ(std::fclose(f), 0);
  return bytes;
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST_F(StorageTest, WalTornAtEveryByteOfTheLastFrameIsCleanEof) {
  // The last frame straddles the first block boundary.
  const std::vector<size_t> sizes = {100, kBlock - 300, 400};
  const std::vector<uint64_t> starts = WriteTestLog(Path("log"), sizes);
  ASSERT_LT(starts[2], kBlock);
  ASSERT_GT(starts[3], kBlock);
  const std::string whole = ReadWholeFile(Path("log"));
  ASSERT_EQ(whole.size(), starts.back());
  for (uint64_t cut = starts[2]; cut < starts[3]; ++cut) {
    WriteWholeFile(Path("torn"), whole.substr(0, cut));
    LogReader reader;
    ASSERT_TRUE(reader.Open(Path("torn")).ok());
    uint8_t type = 0;
    std::string payload;
    bool eof = false;
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok());
      ASSERT_FALSE(eof);
      ASSERT_EQ(payload, TestPayload(i, sizes[i]));
    }
    ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok()) << cut;
    EXPECT_TRUE(eof) << "cut at " << cut;
    EXPECT_EQ(reader.records_read(), 2u) << cut;
    EXPECT_EQ(reader.valid_offset(), starts[2]) << cut;
    EXPECT_EQ(reader.last_record_offset(), starts[2]) << cut;
    if (HasFailure()) return;
  }
}

TEST_F(StorageTest, WalChecksumMismatchPastTheFirstBlockNamesTheFrame) {
  const std::vector<size_t> sizes(100, 1000);
  const std::vector<uint64_t> starts = WriteTestLog(Path("log"), sizes);
  const size_t bad = 80;
  ASSERT_GT(starts[bad], kBlock);
  std::string bytes = ReadWholeFile(Path("log"));
  bytes[starts[bad] + kFrameOverhead + 500] ^= 0x10;
  WriteWholeFile(Path("log"), bytes);

  LogReader reader;
  ASSERT_TRUE(reader.Open(Path("log")).ok());
  uint8_t type = 0;
  std::string payload;
  bool eof = false;
  for (size_t i = 0; i < bad; ++i) {
    ASSERT_TRUE(reader.ReadRecord(&type, &payload, &eof).ok()) << i;
  }
  const Status s = reader.ReadRecord(&type, &payload, &eof);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(s.message(), "checksum mismatch in " + Path("log") +
                             " at record #80 (offset " +
                             std::to_string(starts[bad]) + ")");
  EXPECT_EQ(reader.valid_offset(), starts[bad]);
  EXPECT_EQ(reader.last_record_offset(), starts[bad]);
  EXPECT_EQ(reader.records_read(), bad);
}

// --- Record round-trips -----------------------------------------------------------

TEST(RecordsTest, ObjectUpsertRoundTrip) {
  PersistedObject o;
  o.id = 42;
  o.loc = Point{0.25, 0.75};
  o.vel = Velocity{-0.01, 0.02};
  o.t = 123.5;
  o.predictive = true;
  std::string payload;
  EncodeObjectUpsert(o, &payload);
  PersistedObject decoded;
  ASSERT_TRUE(DecodeObjectUpsert(payload, &decoded).ok());
  EXPECT_EQ(decoded, o);
}

TEST(RecordsTest, QueryRegisterRoundTripAllKinds) {
  for (QueryKind kind : {QueryKind::kRange, QueryKind::kKnn,
                         QueryKind::kPredictiveRange}) {
    PersistedQuery q;
    q.id = 7;
    q.kind = kind;
    q.region = Rect{0.1, 0.2, 0.3, 0.4};
    q.center = Point{0.5, 0.6};
    q.k = 9;
    q.t_from = 1.5;
    q.t_to = 2.5;
    std::string payload;
    EncodeQueryRegister(q, &payload);
    PersistedQuery decoded;
    ASSERT_TRUE(DecodeQueryRegister(payload, &decoded).ok());
    EXPECT_EQ(decoded, q);
  }
}

TEST(RecordsTest, CommitRoundTrip) {
  PersistedCommit c;
  c.id = 3;
  c.answer = {5, 7, 11};
  std::string payload;
  EncodeCommit(c, &payload);
  PersistedCommit decoded;
  ASSERT_TRUE(DecodeCommit(payload, &decoded).ok());
  EXPECT_EQ(decoded, c);
}

TEST(RecordsTest, TruncatedPayloadsAreCorrupt) {
  PersistedObject o;
  o.id = 1;
  std::string payload;
  EncodeObjectUpsert(o, &payload);
  payload.resize(payload.size() - 3);
  PersistedObject decoded;
  EXPECT_TRUE(DecodeObjectUpsert(payload, &decoded).IsCorruption());

  std::string commit_payload;
  PersistedCommit c;
  c.id = 1;
  c.answer = {1, 2, 3};
  EncodeCommit(c, &commit_payload);
  commit_payload.resize(commit_payload.size() - 4);  // cut last oid
  PersistedCommit decoded_commit;
  EXPECT_TRUE(DecodeCommit(commit_payload, &decoded_commit).IsCorruption());
}

TEST(RecordsTest, MoveAndUnregisterRoundTrip) {
  std::string payload;
  EncodeQueryMoveRect(5, Rect{0, 0, 1, 1}, &payload);
  QueryId id = 0;
  Rect region;
  ASSERT_TRUE(DecodeQueryMoveRect(payload, &id, &region).ok());
  EXPECT_EQ(id, 5u);
  EXPECT_EQ(region, (Rect{0, 0, 1, 1}));

  payload.clear();
  EncodeQueryMoveCenter(6, Point{0.5, 0.25}, &payload);
  Point center;
  ASSERT_TRUE(DecodeQueryMoveCenter(payload, &id, &center).ok());
  EXPECT_EQ(id, 6u);
  EXPECT_EQ(center, (Point{0.5, 0.25}));

  payload.clear();
  EncodeQueryUnregister(8, &payload);
  ASSERT_TRUE(DecodeQueryUnregister(payload, &id).ok());
  EXPECT_EQ(id, 8u);
}

// --- Snapshot -----------------------------------------------------------------------

TEST_F(StorageTest, SnapshotRoundTrip) {
  PersistedState state;
  PersistedObject o;
  o.id = 1;
  o.loc = Point{0.5, 0.5};
  o.t = 10.0;
  state.objects.push_back(o);
  PersistedQuery q;
  q.id = 2;
  q.kind = QueryKind::kRange;
  q.region = Rect{0, 0, 0.5, 0.5};
  state.queries.push_back(q);
  PersistedCommit c;
  c.id = 2;
  c.answer = {1};
  state.commits.push_back(c);
  state.last_tick = 10.0;

  ASSERT_TRUE(WriteSnapshot(Path("SNAPSHOT"), state).ok());
  PersistedState loaded;
  ASSERT_TRUE(ReadSnapshot(Path("SNAPSHOT"), &loaded).ok());
  EXPECT_EQ(loaded, state);
}

TEST_F(StorageTest, MissingSnapshotIsFreshStart) {
  PersistedState loaded;
  loaded.last_tick = 99.0;
  ASSERT_TRUE(ReadSnapshot(Path("nonexistent"), &loaded).ok());
  EXPECT_EQ(loaded, PersistedState{});
}

// --- Repository ------------------------------------------------------------------------

TEST_F(StorageTest, RepositoryRecoversLoggedState) {
  {
    Repository repo(dir_);
    ASSERT_TRUE(repo.Open().ok());
    PersistedObject o;
    o.id = 1;
    o.loc = Point{0.3, 0.3};
    o.t = 1.0;
    ASSERT_TRUE(repo.LogObjectUpsert(o).ok());
    o.loc = Point{0.6, 0.6};  // later report supersedes
    o.t = 2.0;
    ASSERT_TRUE(repo.LogObjectUpsert(o).ok());
    PersistedQuery q;
    q.id = 5;
    q.kind = QueryKind::kRange;
    q.region = Rect{0.5, 0.5, 0.7, 0.7};
    ASSERT_TRUE(repo.LogQueryRegister(q).ok());
    ASSERT_TRUE(repo.LogCommit(5, {1}).ok());
    ASSERT_TRUE(repo.LogTick(2.0).ok());
    ASSERT_TRUE(repo.Sync().ok());
    ASSERT_TRUE(repo.Close().ok());
  }
  Repository repo(dir_);
  ASSERT_TRUE(repo.Open().ok());
  const PersistedState& state = repo.recovered();
  ASSERT_EQ(state.objects.size(), 1u);
  EXPECT_EQ(state.objects[0].loc, (Point{0.6, 0.6}));
  ASSERT_EQ(state.queries.size(), 1u);
  EXPECT_EQ(state.queries[0].region, (Rect{0.5, 0.5, 0.7, 0.7}));
  ASSERT_EQ(state.commits.size(), 1u);
  EXPECT_EQ(state.commits[0].answer, std::vector<ObjectId>{1});
  EXPECT_DOUBLE_EQ(state.last_tick, 2.0);
}

TEST_F(StorageTest, RepositoryRemovalAndUnregisterReplay) {
  {
    Repository repo(dir_);
    ASSERT_TRUE(repo.Open().ok());
    PersistedObject o;
    o.id = 1;
    ASSERT_TRUE(repo.LogObjectUpsert(o).ok());
    ASSERT_TRUE(repo.LogObjectRemove(1).ok());
    PersistedQuery q;
    q.id = 2;
    ASSERT_TRUE(repo.LogQueryRegister(q).ok());
    ASSERT_TRUE(repo.LogCommit(2, {9}).ok());
    ASSERT_TRUE(repo.LogQueryUnregister(2).ok());
    ASSERT_TRUE(repo.Close().ok());
  }
  Repository repo(dir_);
  ASSERT_TRUE(repo.Open().ok());
  EXPECT_TRUE(repo.recovered().objects.empty());
  EXPECT_TRUE(repo.recovered().queries.empty());
  EXPECT_TRUE(repo.recovered().commits.empty());
}

TEST_F(StorageTest, CheckpointTruncatesWal) {
  Repository repo(dir_);
  ASSERT_TRUE(repo.Open().ok());
  PersistedObject o;
  o.id = 1;
  o.loc = Point{0.1, 0.1};
  ASSERT_TRUE(repo.LogObjectUpsert(o).ok());

  PersistedState state;
  o.loc = Point{0.9, 0.9};
  state.objects.push_back(o);
  state.last_tick = 5.0;
  ASSERT_TRUE(repo.Checkpoint(state).ok());
  ASSERT_TRUE(repo.Close().ok());

  Repository reopened(dir_);
  ASSERT_TRUE(reopened.Open().ok());
  // The snapshot (not the stale pre-checkpoint WAL record) wins.
  ASSERT_EQ(reopened.recovered().objects.size(), 1u);
  EXPECT_EQ(reopened.recovered().objects[0].loc, (Point{0.9, 0.9}));
  EXPECT_DOUBLE_EQ(reopened.recovered().last_tick, 5.0);
}

TEST_F(StorageTest, RestoreProcessorRebuildsAnswers) {
  // Run a live processor, persist through the repository, crash, recover,
  // and verify the restored processor computes identical answers.
  QueryProcessor live;
  Repository repo(dir_);
  ASSERT_TRUE(repo.Open().ok());

  for (ObjectId id = 1; id <= 30; ++id) {
    const Point loc{static_cast<double>(id) / 31.0, 0.5};
    ASSERT_TRUE(live.UpsertObject(id, loc, 1.0).ok());
    PersistedObject o;
    o.id = id;
    o.loc = loc;
    o.t = 1.0;
    ASSERT_TRUE(repo.LogObjectUpsert(o).ok());
  }
  ASSERT_TRUE(live.RegisterRangeQuery(1, Rect{0.2, 0.4, 0.6, 0.6}).ok());
  PersistedQuery q;
  q.id = 1;
  q.kind = QueryKind::kRange;
  q.region = Rect{0.2, 0.4, 0.6, 0.6};
  ASSERT_TRUE(repo.LogQueryRegister(q).ok());
  live.EvaluateTick(1.0);
  ASSERT_TRUE(repo.LogTick(1.0).ok());
  ASSERT_TRUE(repo.Sync().ok());
  ASSERT_TRUE(repo.Close().ok());  // "crash"

  Repository recovered(dir_);
  ASSERT_TRUE(recovered.Open().ok());
  QueryProcessor restored;
  Result<TickResult> restore =
      RestoreProcessor(recovered.recovered(), &restored);
  ASSERT_TRUE(restore.ok());
  EXPECT_EQ(*restored.CurrentAnswer(1), *live.CurrentAnswer(1));
  EXPECT_TRUE(restored.CheckInvariants().ok());
}

TEST_F(StorageTest, MidLogCorruptionReportsOffsetAndIndex) {
  {
    Repository repo(dir_);
    ASSERT_TRUE(repo.Open().ok());
    for (ObjectId id = 1; id <= 3; ++id) {
      PersistedObject o;
      o.id = id;
      ASSERT_TRUE(repo.LogObjectUpsert(o).ok());
    }
    ASSERT_TRUE(repo.Sync().ok());
    ASSERT_TRUE(repo.Close().ok());
  }
  // Flip one byte inside the middle record (well past the epoch header
  // and the first upsert, well before the tail).
  const std::string wal = dir_ + "/WAL";
  FILE* f = std::fopen(wal.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  const long target = size / 2;
  std::fseek(f, target, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, target, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  ASSERT_EQ(std::fclose(f), 0);

  Repository repo(dir_);
  const Status s = repo.Open();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  // The position of the bad frame must be in the message: record index
  // and byte offset.
  EXPECT_NE(s.message().find("record #"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("offset"), std::string::npos) << s.ToString();
}

TEST_F(StorageTest, TornSnapshotIsCorruption) {
  PersistedState state;
  PersistedObject o;
  o.id = 1;
  o.loc = Point{0.5, 0.5};
  state.objects.push_back(o);
  state.last_tick = 3.0;
  ASSERT_TRUE(WriteSnapshot(Path("SNAPSHOT"), state).ok());

  // Tear off part of the terminal tick record; the WAL framing would
  // read this as a clean EOF, but a snapshot must notice the loss.
  FILE* f = std::fopen(Path("SNAPSHOT").c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(std::fclose(f), 0);
  ASSERT_EQ(truncate(Path("SNAPSHOT").c_str(), size - 5), 0);

  PersistedState loaded;
  EXPECT_TRUE(ReadSnapshot(Path("SNAPSHOT"), &loaded).IsCorruption());
}

TEST_F(StorageTest, StaleWalFromCrashedCheckpointIsIgnored) {
  std::string old_wal_bytes;
  {
    Repository repo(dir_);
    ASSERT_TRUE(repo.Open().ok());
    PersistedObject o;
    o.id = 1;
    o.loc = Point{0.1, 0.1};
    ASSERT_TRUE(repo.LogObjectUpsert(o).ok());
    ASSERT_TRUE(repo.Sync().ok());

    // Capture the pre-checkpoint WAL (epoch 0 header + the upsert).
    FILE* f = std::fopen((dir_ + "/WAL").c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      old_wal_bytes.append(buf, got);
    }
    ASSERT_EQ(std::fclose(f), 0);

    PersistedState state;
    o.loc = Point{0.9, 0.9};
    state.objects.push_back(o);
    state.last_tick = 5.0;
    ASSERT_TRUE(repo.Checkpoint(state).ok());
    ASSERT_TRUE(repo.Close().ok());
  }
  // Simulate the crash window where the new SNAPSHOT became durable but
  // the WAL reset did not: put the old WAL bytes back.
  FILE* f = std::fopen((dir_ + "/WAL").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(old_wal_bytes.data(), 1, old_wal_bytes.size(), f),
            old_wal_bytes.size());
  ASSERT_EQ(std::fclose(f), 0);

  Repository repo(dir_);
  ASSERT_TRUE(repo.Open().ok());
  // The stale epoch-0 WAL must not be replayed over the epoch-1 snapshot.
  ASSERT_EQ(repo.recovered().objects.size(), 1u);
  EXPECT_EQ(repo.recovered().objects[0].loc, (Point{0.9, 0.9}));
  EXPECT_DOUBLE_EQ(repo.recovered().last_tick, 5.0);
  EXPECT_EQ(repo.epoch(), 1u);
}

TEST_F(StorageTest, RepositoryDoubleOpenRejected) {
  Repository repo(dir_);
  ASSERT_TRUE(repo.Open().ok());
  EXPECT_EQ(repo.Open().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StorageTest, LoggingBeforeOpenFails) {
  Repository repo(dir_);
  EXPECT_EQ(repo.LogTick(1.0).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace stq
