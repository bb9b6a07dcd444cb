// io::journal + Engine durability tests: record format and CRC, torn-tail
// truncation semantics, bounded write retries under injected faults, the
// malformed-journal corpus in data/edits/, and the ISSUE 6 acceptance pin:
// truncating the journal at ANY record boundary (and at a torn mid-record
// offset) then Engine::recover() + resynthesize() reproduces the
// uninterrupted session's result bit-identically (same cover cost, same
// ucp_nodes) on WAN/SoC/NoC at 1/2/8 threads.
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "io/journal.hpp"
#include "io/text_format.hpp"
#include "model/delta.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "synth/engine.hpp"
#include "workloads/mpeg4_soc.hpp"
#include "workloads/noc_mesh.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs {
namespace {

using support::ErrorCode;
using support::FaultInjector;
using support::FaultPlan;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "cdcs_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A raw [length][crc][payload] record, little-endian, optionally with a
/// deliberately wrong checksum.
std::string raw_record(const std::string& payload, std::uint32_t crc) {
  std::string rec;
  for (int shift = 0; shift < 32; shift += 8) {
    rec.push_back(static_cast<char>(
        (static_cast<std::uint32_t>(payload.size()) >> shift) & 0xFF));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    rec.push_back(static_cast<char>((crc >> shift) & 0xFF));
  }
  return rec + payload;
}

model::Delta retune(const std::string& channel, double bw) {
  model::Delta d;
  d.ops.push_back(model::SetBandwidthOp{channel, bw});
  return d;
}

/// Same exhaustive fingerprint as tests/test_incremental.cpp: candidates,
/// cover, cost, stage, and the solver's node count.
std::string fingerprint(const synth::SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const synth::Candidate& c : r.candidates()) {
    os << '[';
    for (model::ArcId a : c.arcs) os << a.value << ',';
    os << "] cost=" << c.cost << '\n';
  }
  os << "chosen:";
  for (std::size_t j : r.cover.chosen) os << ' ' << j;
  os << "\ntotal=" << r.total_cost
     << "\nstage=" << to_string(r.degradation.stage)
     << "\nucp_nodes=" << r.cover.nodes_explored << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// CRC and record format
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check vector (and zlib/binascii agreement).
  EXPECT_EQ(io::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::crc32(""), 0u);
  EXPECT_NE(io::crc32("journal"), io::crc32("journaL"));
}

TEST(Journal, RoundTripsSnapshotAndDeltas) {
  const std::string path = temp_path("roundtrip.journal");
  const model::ConstraintGraph base = workloads::wan2002();
  auto writer = io::JournalWriter::create(path, base);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();
  ASSERT_TRUE(writer->append_delta(retune("a3", 25.0)).ok());
  ASSERT_TRUE(writer->append_delta(retune("a1", 15.0)).ok());
  EXPECT_EQ(writer->records(), 3u);

  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 3u);
  ASSERT_EQ(contents->deltas.size(), 2u);
  EXPECT_EQ(contents->bytes_dropped, 0u);
  EXPECT_FALSE(contents->tail_truncated());
  EXPECT_EQ(contents->valid_prefix_bytes, writer->end_offset());
  // The snapshot round-trips byte-identically through the text format.
  EXPECT_EQ(io::write_constraint_graph(contents->base),
            io::write_constraint_graph(base));
  EXPECT_EQ(contents->deltas[0].ops.size(), 1u);
}

TEST(Journal, EmptyDeltaBatchesAreLegalRecords) {
  const std::string path = temp_path("empty_batch.journal");
  auto writer = io::JournalWriter::create(path, workloads::wan2002());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->append_delta(model::Delta{}).ok());
  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  ASSERT_EQ(contents->deltas.size(), 1u);
  EXPECT_TRUE(contents->deltas[0].empty());
}

// ---------------------------------------------------------------------------
// Torn tails and corruption
// ---------------------------------------------------------------------------

TEST(Journal, TornHeaderIsTruncatedCleanly) {
  const std::string path = temp_path("torn_header.journal");
  auto writer = io::JournalWriter::create(path, workloads::wan2002());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->append_delta(retune("a3", 25.0)).ok());
  const std::string healthy = read_file(path);
  write_file(path, healthy + std::string("\x20\x01\x00", 3));  // torn header

  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 2u);
  EXPECT_EQ(contents->bytes_dropped, 3u);
  EXPECT_TRUE(contents->tail_truncated());
  EXPECT_EQ(contents->valid_prefix_bytes, healthy.size());
}

TEST(Journal, TornPayloadIsTruncatedCleanly) {
  const std::string path = temp_path("torn_payload.journal");
  auto writer = io::JournalWriter::create(path, workloads::wan2002());
  ASSERT_TRUE(writer.ok());
  const std::string healthy = read_file(path);
  // A record header promising 1000 payload bytes, followed by only 4.
  const std::string torn = raw_record("full", io::crc32("full"));
  write_file(path, healthy + torn.substr(0, 8) + "xxxx");
  // (length field says 4, but deliberately lie with a bigger one)
  std::string big = healthy;
  big += raw_record(std::string(1000, 'y'), 0).substr(0, 8);
  big += "only-a-few-bytes";
  write_file(path, big);

  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 1u);
  EXPECT_TRUE(contents->tail_truncated());
  EXPECT_EQ(contents->valid_prefix_bytes, healthy.size());
}

TEST(Journal, BadCrcStopsTheValidPrefixAtThatRecord) {
  const std::string path = temp_path("bad_crc.journal");
  auto writer = io::JournalWriter::create(path, workloads::wan2002());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->append_delta(retune("a3", 25.0)).ok());
  const std::string healthy = read_file(path);
  const std::string payload = "delta\nset-bandwidth a1 12\nsolve\n";
  write_file(path, healthy + raw_record(payload, io::crc32(payload) ^ 1u));

  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 2u);
  EXPECT_EQ(contents->bytes_dropped, 8u + payload.size());
  EXPECT_EQ(contents->valid_prefix_bytes, healthy.size());
}

TEST(Journal, ChecksummedButUnparseablePayloadIsAParseError) {
  const std::string path = temp_path("bad_tag.journal");
  auto writer = io::JournalWriter::create(path, workloads::wan2002());
  ASSERT_TRUE(writer.ok());
  const std::string healthy = read_file(path);
  const std::string payload = "bogus\nnot a record\n";
  write_file(path, healthy + raw_record(payload, io::crc32(payload)));

  const auto contents = io::read_journal(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), ErrorCode::kParseError);
  // The diagnostic names the record number and byte offset.
  EXPECT_NE(contents.status().to_string().find("record 2"), std::string::npos)
      << contents.status().to_string();
}

TEST(Journal, BadMagicIsAParseError) {
  const std::string path = temp_path("bad_magic.journal");
  write_file(path, "NOTAWAL0 some bytes");
  const auto contents = io::read_journal(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), ErrorCode::kParseError);
}

TEST(Journal, TornBaseSnapshotIsAParseError) {
  const std::string path = temp_path("torn_base.journal");
  const std::string healthy =
      read_file(([&] {
        const std::string p = temp_path("torn_base_src.journal");
        auto w = io::JournalWriter::create(p, workloads::wan2002());
        EXPECT_TRUE(w.ok());
        return p;
      })());
  // Keep the magic plus half the snapshot record: nothing recoverable.
  write_file(path, healthy.substr(0, 8 + (healthy.size() - 8) / 2));
  const auto contents = io::read_journal(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), ErrorCode::kParseError);
}

// ---------------------------------------------------------------------------
// data/edits/ malformed-journal corpus
// ---------------------------------------------------------------------------

std::string corpus_path(const std::string& file) {
  return std::string(CDCS_SOURCE_DIR) + "/data/edits/" + file;
}

TEST(JournalCorpus, BadCrcJournalRecoversThePrefix) {
  const auto contents = io::read_journal(corpus_path("malformed_bad_crc.journal"));
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 2u);  // snapshot + 1 delta
  EXPECT_EQ(contents->deltas.size(), 1u);
  EXPECT_TRUE(contents->tail_truncated());
  EXPECT_GT(contents->bytes_dropped, 0u);
}

TEST(JournalCorpus, TruncatedLengthPrefixRecoversThePrefix) {
  const auto contents =
      io::read_journal(corpus_path("malformed_truncated_length.journal"));
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 2u);
  EXPECT_TRUE(contents->tail_truncated());
  EXPECT_LT(contents->bytes_dropped, 8u);  // a partial header
}

TEST(JournalCorpus, TornTailRecoversThePrefix) {
  const auto contents =
      io::read_journal(corpus_path("malformed_torn_tail.journal"));
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 3u);  // snapshot + 2 deltas
  EXPECT_EQ(contents->deltas.size(), 2u);
  EXPECT_TRUE(contents->tail_truncated());
}

TEST(JournalCorpus, BadMagicJournalIsAParseError) {
  const auto contents =
      io::read_journal(corpus_path("malformed_bad_magic.journal"));
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), ErrorCode::kParseError);
}

// ---------------------------------------------------------------------------
// Write-path fault injection: bounded retry + deterministic backoff
// ---------------------------------------------------------------------------

TEST(Journal, TransientWriteFaultIsRetriedAndSucceeds) {
  const std::string path = temp_path("retry_ok.journal");
  io::JournalOptions options;
  // Hit 1 is the snapshot append; the first delta-append attempt (hit 2)
  // fires once, the retry (hit 3) goes through.
  options.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse("io.journal.write@2").value());
  const auto retries_before =
      support::MetricsRegistry::global().counter("io.journal.retries").value();

  auto writer =
      io::JournalWriter::create(path, workloads::wan2002(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();
  ASSERT_TRUE(writer->append_delta(retune("a3", 25.0)).ok());

  EXPECT_GE(
      support::MetricsRegistry::global().counter("io.journal.retries").value(),
      retries_before + 1);
  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 2u);
  EXPECT_EQ(contents->bytes_dropped, 0u);  // the torn attempt was cleaned up
}

TEST(Journal, PersistentWriteFaultExhaustsRetriesAndHealsTheFile) {
  const std::string path = temp_path("retry_exhausted.journal");
  io::JournalOptions options;
  // Hits 2, 3, 4 = all three attempts of the first delta append.
  options.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse(
          "io.journal.write@2;io.journal.write@3;io.journal.write@4")
          .value());
  auto writer =
      io::JournalWriter::create(path, workloads::wan2002(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();

  const support::Status failed = writer->append_delta(retune("a3", 25.0));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), ErrorCode::kInternal);
  EXPECT_NE(failed.to_string().find("io.journal.write"), std::string::npos)
      << failed.to_string();
  EXPECT_NE(failed.to_string().find("3 attempt"), std::string::npos)
      << failed.to_string();

  // The failed record was truncated out: the file is still a valid
  // snapshot-only journal.
  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  EXPECT_EQ(contents->records_recovered, 1u);
  EXPECT_EQ(contents->bytes_dropped, 0u);
}

TEST(Journal, FsyncFaultIsRetriedLikeAWriteFault) {
  const std::string path = temp_path("fsync_retry.journal");
  io::JournalOptions options;
  options.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse("io.journal.fsync@1").value());
  auto writer =
      io::JournalWriter::create(path, workloads::wan2002(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();  // retried
  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records_recovered, 1u);
}

TEST(Journal, OpenFaultFailsCreation) {
  io::JournalOptions options;
  options.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse("io.journal.open@1").value());
  auto writer = io::JournalWriter::create(temp_path("open_fault.journal"),
                                          workloads::wan2002(), options);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), ErrorCode::kInternal);
}

TEST(Journal, TruncateLastRecordUndoesAppends) {
  const std::string path = temp_path("truncate.journal");
  auto writer = io::JournalWriter::create(path, workloads::wan2002());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->append_delta(retune("a3", 25.0)).ok());
  ASSERT_TRUE(writer->append_delta(retune("a1", 15.0)).ok());

  ASSERT_TRUE(writer->truncate_last_record().ok());
  auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->deltas.size(), 1u);

  ASSERT_TRUE(writer->truncate_last_record().ok());
  contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->deltas.size(), 0u);

  // The base snapshot is not removable.
  EXPECT_FALSE(writer->truncate_last_record().ok());
}

// ---------------------------------------------------------------------------
// Engine::recover crash-recovery pin (acceptance criterion)
// ---------------------------------------------------------------------------

/// Three small generic batches valid on any workload graph: retune the
/// first channel, nudge the first port, add a port + channel.
std::vector<model::Delta> generic_script(const model::ConstraintGraph& cg) {
  const std::vector<model::VertexId> ports = cg.ports();
  const std::string arc0 = cg.channel(model::ArcId{0}).name;
  const std::string port0 = cg.port(ports.at(0)).name;
  const std::string port1 = cg.port(ports.at(1)).name;
  const geom::Point2D p0 = cg.port(ports.at(0)).position;

  std::vector<model::Delta> script(3);
  script[0].ops.push_back(
      model::SetBandwidthOp{arc0, cg.bandwidth(model::ArcId{0}) * 1.5});
  script[1].ops.push_back(model::MovePortOp{port0, {p0.x + 0.5, p0.y - 0.5}});
  script[2].ops.push_back(model::AddPortOp{"jp1", {p0.x + 1.0, p0.y + 1.0}});
  script[2].ops.push_back(model::AddArcOp{"je1", port1, "jp1", 7.5});
  return script;
}

/// The pin itself: run a journaled session, then for EVERY record boundary
/// (and one torn mid-record offset) truncate a copy of the journal there,
/// recover, resynthesize, and demand the bit-identical fingerprint the
/// uninterrupted session produced at that point.
void recovery_pin(const std::string& tag, model::ConstraintGraph base,
                  const commlib::Library& lib, int threads) {
  const std::string path = temp_path("pin_" + tag + ".journal");
  synth::SynthesisOptions options;
  options.threads = threads;

  synth::Engine engine(base, lib, options);
  ASSERT_TRUE(engine.open_journal(path).ok());
  std::vector<std::string> fps;  // fps[k] = fingerprint after k deltas
  const auto baseline = engine.resynthesize();
  ASSERT_TRUE(baseline.ok()) << baseline.status().to_string();
  fps.push_back(fingerprint(*baseline));
  const std::vector<model::Delta> script = generic_script(engine.graph());
  for (const model::Delta& d : script) {
    const auto r = engine.apply(d);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    fps.push_back(fingerprint(*r));
  }
  engine.close_journal();

  const auto contents = io::read_journal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().to_string();
  ASSERT_EQ(contents->records_recovered, 1u + script.size());
  const std::string full = read_file(path);

  // Record boundaries: after the snapshot, after each delta.
  std::vector<std::uint64_t> boundaries(contents->record_offsets.begin() + 1,
                                        contents->record_offsets.end());
  boundaries.push_back(contents->valid_prefix_bytes);
  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    const std::string cut = temp_path("pin_" + tag + "_cut.journal");
    write_file(cut, full.substr(0, boundaries[k]));

    synth::Engine::RecoveryReport report;
    auto recovered = synth::Engine::recover(cut, lib, options, &report);
    ASSERT_TRUE(recovered.ok())
        << tag << " boundary " << k << ": " << recovered.status().to_string();
    EXPECT_EQ(report.records_recovered, k + 1);
    EXPECT_EQ(report.deltas_replayed, k);
    EXPECT_FALSE(report.tail_truncated);

    const auto result = (*recovered)->resynthesize();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(fingerprint(*result), fps[k])
        << tag << " boundary " << k << " threads " << threads;
  }

  // Torn mid-record: all but half of the last record. Recovery truncates
  // the torn bytes and lands on the previous boundary's state.
  const std::uint64_t last_start =
      contents->record_offsets.back();
  const std::uint64_t torn_end =
      last_start + (contents->valid_prefix_bytes - last_start) / 2;
  const std::string torn = temp_path("pin_" + tag + "_torn.journal");
  write_file(torn, full.substr(0, torn_end));

  synth::Engine::RecoveryReport report;
  auto recovered = synth::Engine::recover(torn, lib, options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_GT(report.bytes_dropped, 0u);
  EXPECT_EQ(report.deltas_replayed, script.size() - 1);
  const auto result = (*recovered)->resynthesize();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(fingerprint(*result), fps[script.size() - 1]) << tag << " torn";
  // The healed journal keeps accepting appends: replay the last batch and
  // converge with the uninterrupted session.
  EXPECT_TRUE((*recovered)->journaling());
  const auto replayed = (*recovered)->apply(script.back());
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  EXPECT_EQ(fingerprint(*replayed), fps[script.size()]) << tag << " replay";
}

TEST(EngineRecovery, WanBitIdenticalAtEveryBoundary1Thread) {
  recovery_pin("wan_t1", workloads::wan2002(), commlib::wan_library(), 1);
}
TEST(EngineRecovery, WanBitIdenticalAtEveryBoundary2Threads) {
  recovery_pin("wan_t2", workloads::wan2002(), commlib::wan_library(), 2);
}
TEST(EngineRecovery, WanBitIdenticalAtEveryBoundary8Threads) {
  recovery_pin("wan_t8", workloads::wan2002(), commlib::wan_library(), 8);
}
TEST(EngineRecovery, SocBitIdenticalAtEveryBoundary1Thread) {
  recovery_pin("soc_t1", workloads::mpeg4_soc(), commlib::soc_library(), 1);
}
TEST(EngineRecovery, SocBitIdenticalAtEveryBoundary2Threads) {
  recovery_pin("soc_t2", workloads::mpeg4_soc(), commlib::soc_library(), 2);
}
TEST(EngineRecovery, SocBitIdenticalAtEveryBoundary8Threads) {
  recovery_pin("soc_t8", workloads::mpeg4_soc(), commlib::soc_library(), 8);
}
TEST(EngineRecovery, NocBitIdenticalAtEveryBoundary1Thread) {
  workloads::NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  recovery_pin("noc_t1", workloads::noc_mesh(p), commlib::noc_library(), 1);
}
TEST(EngineRecovery, NocBitIdenticalAtEveryBoundary2Threads) {
  workloads::NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  recovery_pin("noc_t2", workloads::noc_mesh(p), commlib::noc_library(), 2);
}
TEST(EngineRecovery, NocBitIdenticalAtEveryBoundary8Threads) {
  workloads::NocMeshParams p;
  p.rows = 3;
  p.cols = 3;
  recovery_pin("noc_t8", workloads::noc_mesh(p), commlib::noc_library(), 8);
}

TEST(EngineRecovery, RecoverOnMissingFileFailsCleanly) {
  auto recovered = synth::Engine::recover(temp_path("does_not_exist.journal"),
                                          commlib::wan_library());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), ErrorCode::kInvalidInput);
}

TEST(EngineRecovery, InjectedRecoverFaultSurfacesAsInternal) {
  const std::string path = temp_path("recover_fault.journal");
  {
    synth::Engine engine(workloads::wan2002(), commlib::wan_library());
    ASSERT_TRUE(engine.open_journal(path).ok());
    ASSERT_TRUE(engine.resynthesize().ok());
  }
  synth::SynthesisOptions options;
  options.fault_injection.injector = std::make_shared<FaultInjector>(
      FaultPlan::parse("engine.recover@1").value());
  auto recovered =
      synth::Engine::recover(path, commlib::wan_library(), options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), ErrorCode::kInternal);
  // Second try: the nth-hit rule is spent, recovery succeeds.
  auto retried = synth::Engine::recover(path, commlib::wan_library(), options);
  EXPECT_TRUE(retried.ok()) << retried.status().to_string();
}

}  // namespace
}  // namespace cdcs
