// Flight-recorder container format: packed-record codec, writer/reader
// round trip, the job and time indexes, and rejection of corrupt files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "obs/recorder/manifest.hpp"
#include "obs/recorder/reader.hpp"
#include "obs/recorder/recorder.hpp"
#include "obs/recorder/writer.hpp"
#include "rms/decision.hpp"

namespace dbs::obs::rec {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "recorder_format_" + name + ".dbsr";
}

PackedRecord make_record(std::int64_t t_us, RecordType type,
                         std::uint32_t job) {
  PackedRecord r;
  r.t_us = t_us;
  r.type = type;
  r.job = job;
  return r;
}

TEST(RecordCodec, RoundTripsEveryField) {
  PackedRecord r;
  r.t_us = -123456789;
  r.aux_us = 987654321;
  r.job = 42;
  r.other = 7;
  r.request = 13;
  r.cores = -96;
  r.iteration = 100000;
  r.user = 3;
  r.reason = 9;
  r.type = RecordType::DecRejectDyn;
  r.flags = kFlagApplied | kFlagDeferred | kFlagHasHint;

  std::vector<unsigned char> buf;
  encode_record(r, buf);
  ASSERT_EQ(buf.size(), kRecordSize);
  const PackedRecord d = decode_record(buf.data());
  EXPECT_EQ(d.t_us, r.t_us);
  EXPECT_EQ(d.aux_us, r.aux_us);
  EXPECT_EQ(d.job, r.job);
  EXPECT_EQ(d.other, r.other);
  EXPECT_EQ(d.request, r.request);
  EXPECT_EQ(d.cores, r.cores);
  EXPECT_EQ(d.iteration, r.iteration);
  EXPECT_EQ(d.user, r.user);
  EXPECT_EQ(d.reason, r.reason);
  EXPECT_EQ(d.type, r.type);
  EXPECT_EQ(d.flags, r.flags);
  EXPECT_TRUE(d.has(kFlagDeferred));
  EXPECT_FALSE(d.has(kFlagBackfilled));
}

TEST(RecordCodec, EncodingIsLittleEndianAndPadded) {
  PackedRecord r;
  r.t_us = 0x0102030405060708;
  std::vector<unsigned char> buf;
  encode_record(r, buf);
  ASSERT_EQ(buf.size(), kRecordSize);
  EXPECT_EQ(buf[0], 0x08);  // least-significant byte first
  EXPECT_EQ(buf[7], 0x01);
  for (std::size_t i = 42; i < kRecordSize; ++i) EXPECT_EQ(buf[i], 0);
}

TEST(RecordWriter, RoundTripsRecordsStringsAndHeader) {
  const std::string path = temp_path("roundtrip");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 128, 1'000'000));

  PackedRecord submit = make_record(1000, RecordType::Submit, 1);
  submit.user = writer.intern("alice");
  submit.cores = 16;
  submit.aux_us = 60'000'000;
  writer.append(submit);

  PackedRecord reject = make_record(2000, RecordType::DecRejectDyn, 1);
  reject.reason =
      static_cast<std::uint16_t>(rms::RejectReason::DeniedTargetDelay);
  reject.request = 5;
  reject.flags = kFlagApplied;
  writer.append(reject);

  EXPECT_EQ(writer.records_written(), 2u);
  EXPECT_EQ(writer.first_t_us(), 1000);
  EXPECT_EQ(writer.last_t_us(), 2000);
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  EXPECT_EQ(reader.record_count(), 2u);
  EXPECT_EQ(reader.capacity(), 128);
  EXPECT_EQ(reader.time_bucket_us(), 1'000'000);
  EXPECT_EQ(reader.indexed_jobs(), 1u);

  const PackedRecord r0 = reader.at(0);
  EXPECT_EQ(r0.type, RecordType::Submit);
  EXPECT_EQ(r0.cores, 16);
  EXPECT_EQ(reader.string_at(r0.user), "alice");
  const PackedRecord r1 = reader.at(1);
  EXPECT_EQ(r1.type, RecordType::DecRejectDyn);
  EXPECT_EQ(record_to_decision(r1).reason,
            rms::RejectReason::DeniedTargetDelay);
  EXPECT_EQ(r1.request, 5u);
  std::remove(path.c_str());
}

TEST(RecordWriter, InternDeduplicatesAndIdZeroIsEmpty) {
  const std::string path = temp_path("intern");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 8));
  EXPECT_EQ(writer.intern(""), 0);
  const std::uint16_t a = writer.intern("alice");
  EXPECT_EQ(writer.intern("alice"), a);
  EXPECT_NE(writer.intern("bob"), a);
  ASSERT_TRUE(writer.finalize());
  std::remove(path.c_str());
}

TEST(RecordWriter, JobIndexMatchesFullScan) {
  const std::string path = temp_path("jobindex");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 64, 1'000'000));
  // Interleave three jobs plus one decision that touches two jobs (a
  // preemption: victim in `job`, beneficiary in `other`).
  for (std::uint32_t i = 0; i < 30; ++i)
    writer.append(make_record(1000 * i, RecordType::Submit, i % 3));
  PackedRecord preempt = make_record(50'000, RecordType::DecPreempt, 0);
  preempt.other = 2;
  preempt.flags = kFlagApplied;
  writer.append(preempt);
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  EXPECT_EQ(reader.jobs(), (std::vector<std::uint64_t>{0, 1, 2}));

  for (std::uint64_t job = 0; job < 3; ++job) {
    std::vector<std::int64_t> scanned;
    reader.scan_all([&](const PackedRecord& r) {
      if (r.job == job || (r.other == job && r.other != r.job))
        scanned.push_back(r.t_us);
    });
    const std::vector<PackedRecord> indexed = reader.for_job(job);
    ASSERT_EQ(indexed.size(), scanned.size()) << "job " << job;
    for (std::size_t i = 0; i < indexed.size(); ++i)
      EXPECT_EQ(indexed[i].t_us, scanned[i]);
  }
  // The preemption shows up under both jobs, once each.
  EXPECT_EQ(reader.for_job(0).back().type, RecordType::DecPreempt);
  EXPECT_EQ(reader.for_job(2).back().type, RecordType::DecPreempt);
  EXPECT_FALSE(reader.has_job(99));
  EXPECT_TRUE(reader.for_job(99).empty());
  std::remove(path.c_str());
}

TEST(RecordReader, TimeIndexScansExactRangesAcrossEmptyBuckets) {
  const std::string path = temp_path("timeindex");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 64, 1'000'000));  // 1 s buckets
  // Records at t = 0s, 0.5s, 3s (buckets 1 and 2 empty), 3.2s, 10s.
  const std::vector<std::int64_t> times = {0, 500'000, 3'000'000, 3'200'000,
                                           10'000'000};
  for (std::size_t i = 0; i < times.size(); ++i)
    writer.append(make_record(times[i], RecordType::Submit,
                              static_cast<std::uint32_t>(i)));
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();

  const auto collect = [&](std::int64_t from_us, std::int64_t to_us) {
    std::vector<std::int64_t> out;
    reader.scan_range(from_us, to_us,
                      [&](const PackedRecord& r) { out.push_back(r.t_us); });
    return out;
  };
  EXPECT_EQ(collect(0, 1'000'000), (std::vector<std::int64_t>{0, 500'000}));
  // A range starting inside the empty buckets picks up from the next record.
  EXPECT_EQ(collect(1'000'000, 4'000'000),
            (std::vector<std::int64_t>{3'000'000, 3'200'000}));
  // Half-open: a record exactly at `to` is excluded.
  EXPECT_EQ(collect(0, 3'000'000), (std::vector<std::int64_t>{0, 500'000}));
  // Range past the last bucket.
  EXPECT_EQ(collect(11'000'000, 99'000'000), std::vector<std::int64_t>{});
  // Full scan sees everything in append order.
  EXPECT_EQ(reader.scan_all([](const PackedRecord&) {}), times.size());
  std::remove(path.c_str());
}

TEST(RecordWriter, OutOfOrderTimestampIsClampedNotLost) {
  const std::string path = temp_path("clamp");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 64, 1'000'000));
  writer.append(make_record(5'000'000, RecordType::Submit, 0));
  writer.append(make_record(1'000'000, RecordType::Start, 0));  // straggler
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  std::vector<std::int64_t> times;
  reader.scan_range(4'000'000, 6'000'000,
                    [&](const PackedRecord& r) { times.push_back(r.t_us); });
  // Both records land in the 5 s bucket; timestamps stay nondecreasing.
  EXPECT_EQ(times, (std::vector<std::int64_t>{5'000'000, 5'000'000}));
  std::remove(path.c_str());
}

TEST(RecordReader, RejectsCorruptFiles) {
  const std::string good = temp_path("good");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.open(good, 64));
    writer.append(make_record(0, RecordType::Submit, 0));
    ASSERT_TRUE(writer.finalize());
  }

  RecordReader missing;
  EXPECT_FALSE(missing.open(temp_path("does_not_exist")));
  EXPECT_FALSE(missing.error().empty());

  // Truncation: drop the footer.
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string truncated = temp_path("truncated");
  std::ofstream(truncated, std::ios::binary)
      << bytes.substr(0, bytes.size() - kFooterSize);
  RecordReader trunc_reader;
  EXPECT_FALSE(trunc_reader.open(truncated));
  EXPECT_FALSE(trunc_reader.error().empty());

  // Bad magic.
  const std::string bad_magic = temp_path("badmagic");
  bytes[0] = 'X';
  std::ofstream(bad_magic, std::ios::binary) << bytes;
  RecordReader magic_reader;
  EXPECT_FALSE(magic_reader.open(bad_magic));
  EXPECT_NE(magic_reader.error().find("magic"), std::string::npos)
      << magic_reader.error();

  // A version-1 file is rejected, naming its version.
  bytes[0] = 'D';
  bytes[4] = 1;
  const std::string old_version = temp_path("v1");
  std::ofstream(old_version, std::ios::binary) << bytes;
  RecordReader version_reader;
  EXPECT_FALSE(version_reader.open(old_version));
  EXPECT_NE(version_reader.error().find("unsupported format version 1"),
            std::string::npos)
      << version_reader.error();
  bytes[4] = static_cast<char>(kFormatVersion);

  // A count of 0xFFFFFFFF in an index section fails open() and names the
  // section, before anything is allocated for it.
  const auto footer_u64 = [&](std::size_t field) {
    return codec::load_le<std::uint64_t>(
        reinterpret_cast<const unsigned char*>(bytes.data()) + bytes.size() -
        kFooterSize + 8 * field);
  };
  const std::uint64_t strings_off = footer_u64(1);
  const std::uint64_t job_index_off = footer_u64(2);
  const std::uint64_t time_index_off = footer_u64(4);
  const struct {
    const char* section;
    std::uint64_t offset;
  } counts[] = {
      {"string table", strings_off},
      {"time index", time_index_off + 8},      // after the first bucket
      {"job index", job_index_off + 4 + 16},  // the first job's postings
  };
  const std::string bad_count = temp_path("badcount");
  for (const auto& c : counts) {
    std::string corrupt = bytes;
    corrupt.replace(c.offset, 4, 4, '\xff');
    std::ofstream(bad_count, std::ios::binary | std::ios::trunc) << corrupt;
    RecordReader reader;
    EXPECT_FALSE(reader.open(bad_count)) << c.section;
    EXPECT_NE(reader.error().find(c.section), std::string::npos)
        << reader.error();
  }

  std::remove(good.c_str());
  std::remove(truncated.c_str());
  std::remove(bad_magic.c_str());
  std::remove(old_version.c_str());
  std::remove(bad_count.c_str());
}

TEST(DecisionRecord, IdsMustFitThirtyTwoBits) {
  rms::Decision d;
  d.kind = rms::DecisionKind::GrantDyn;
  d.job = JobId{0xfffffffeu};  // the largest id a record holds
  d.request = RequestId{7};
  const PackedRecord r = decision_record(Time::from_micros(5), 1, d);
  EXPECT_EQ(r.job, 0xfffffffeu);
  EXPECT_EQ(r.other, kNoId);  // an invalid id stays "no id"
  const rms::Decision back = record_to_decision(r);
  EXPECT_EQ(back.job, d.job);
  EXPECT_EQ(back.request, d.request);
  EXPECT_FALSE(back.for_job.valid());

  // 2^32 - 1 would alias "no id"; anything wider does not fit.
  d.job = JobId{0xffffffffu};
  EXPECT_THROW((void)decision_record(Time::epoch(), 0, d),
               precondition_error);
  d.job = JobId{std::uint64_t{1} << 40};
  EXPECT_THROW((void)decision_record(Time::epoch(), 0, d),
               precondition_error);

  // The iteration is kept mod 2^32.
  d.job = JobId{1};
  EXPECT_EQ(decision_record(Time::epoch(), (std::uint64_t{1} << 32) + 3, d)
                .iteration,
            3u);
}

TEST(DecisionRecord, UnknownReasonRendersAsUnknown) {
  PackedRecord r = make_record(0, RecordType::DecRejectDyn, 3);
  r.request = 4;
  r.reason = 999;
  r.flags = kFlagApplied;
  std::string json;
  rms::decision_to_json(record_to_decision(r), json);
  EXPECT_NE(json.find("\"reason\": \"unknown\""), std::string::npos) << json;
}

TEST(Manifest, ShardPathsAndJson) {
  EXPECT_EQ(shard_path("run.dbsr", 0), "run.dbsr");
  EXPECT_EQ(shard_path("run.dbsr", 3), "run.dbsr.rep3");

  Manifest m;
  ManifestShard a;
  a.path = "run.dbsr";
  a.records = 10;
  a.last_t_us = 99;
  ManifestShard b;
  b.path = "run.dbsr.rep1";
  b.replication = 1;
  b.records = 7;
  m.shards = {a, b};
  EXPECT_EQ(m.total_records(), 17u);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("run.dbsr.rep1"), std::string::npos);
  EXPECT_NE(json.find("\"total_records\": 17"), std::string::npos);
}

TEST(RecordType, NamesAndDecisionSplit) {
  EXPECT_EQ(to_string(RecordType::Submit), "submit");
  EXPECT_EQ(to_string(RecordType::DecStartJob), "dec_start_job");
  EXPECT_FALSE(is_decision(RecordType::Cancel));
  EXPECT_TRUE(is_decision(RecordType::DecReserve));
}

}  // namespace
}  // namespace dbs::obs::rec
