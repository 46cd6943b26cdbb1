// Snapshot persistence tests (src/svc/snapshot.h):
//  - encode/decode round-trip over every database in examples/data/ —
//    FormatDatabase output must be bit-identical and version / query /
//    constraints preserved;
//  - a corruption table (truncation, bit flips, bad magic, header lies,
//    session mismatch) where every corrupt file must be quarantined, never
//    loaded and never a crash;
//  - crash-safety under injected faults: a failed Save leaves the previous
//    snapshot intact (ZEROONE_FAULT=ON builds only).

#include "svc/snapshot.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "constraints/fd.h"
#include "constraints/ind.h"
#include "data/io.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "query/parser.h"

#ifndef ZEROONE_EXAMPLES_DIR
#error "ZEROONE_EXAMPLES_DIR must point at examples/data"
#endif

namespace zeroone {
namespace svc {
namespace {

std::vector<std::string> ExampleDatabases() {
  std::vector<std::string> paths;
  DIR* dir = ::opendir(ZEROONE_EXAMPLES_DIR);
  if (dir == nullptr) return paths;
  while (dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name.size() > 3 && name.substr(name.size() - 3) == ".zo") {
      paths.push_back(std::string(ZEROONE_EXAMPLES_DIR) + "/" + name);
    }
  }
  ::closedir(dir);
  return paths;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteWholeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// An RAII temp directory (removed recursively, one level deep).
class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/zo1snap_test_XXXXXX";
    path_ = ::mkdtemp(templ);
  }
  ~TempDir() {
    if (path_.empty()) return;
    if (DIR* dir = ::opendir(path_.c_str())) {
      while (dirent* entry = ::readdir(dir)) {
        std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// SessionState holds a SessionMutex and is neither copyable nor movable,
// so states are built behind a unique_ptr.
std::unique_ptr<SessionState> MakeState(const Database& db) {
  auto state = std::make_unique<SessionState>();
  state->db = db;
  state->version = 7;
  return state;
}

TEST(SnapshotCodec, RoundTripsEveryExampleDatabase) {
  std::vector<std::string> examples = ExampleDatabases();
  ASSERT_FALSE(examples.empty())
      << "no *.zo files under " << ZEROONE_EXAMPLES_DIR;
  for (const std::string& path : examples) {
    SCOPED_TRACE(path);
    StatusOr<Database> db = ParseDatabase(ReadWholeFile(path));
    ASSERT_TRUE(db.ok()) << db.status().message();
    std::unique_ptr<SessionState> state = MakeState(*db);
    StatusOr<std::string> image = EncodeSnapshot("rt", *state);
    ASSERT_TRUE(image.ok()) << image.status().message();

    std::string session;
    SessionState decoded;
    Status status = DecodeSnapshot(*image, &session, &decoded);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(session, "rt");
    EXPECT_EQ(decoded.version, state->version);
    // Bit-identical database text is the round-trip contract.
    EXPECT_EQ(FormatDatabase(decoded.db), FormatDatabase(state->db));
    EXPECT_FALSE(decoded.has_query);
  }
}

TEST(SnapshotCodec, RoundTripsQueryAndConstraints) {
  StatusOr<Database> db =
      ParseDatabase("R(2) = { (a, _1), (b, _2) } S(1) = { (a) }");
  ASSERT_TRUE(db.ok());
  std::unique_ptr<SessionState> state = MakeState(*db);
  state->version = 41;
  StatusOr<Query> query =
      ParseQuery("Q(x) := exists y . R(x, y) & S(x)");
  ASSERT_TRUE(query.ok()) << query.status().message();
  state->query = *query;
  state->has_query = true;
  FunctionalDependency fd("R", 2, {0}, 1);
  state->fds.push_back(fd);
  state->constraints.push_back(std::make_shared<FunctionalDependency>(fd));
  state->constraints.push_back(std::make_shared<InclusionDependency>(
      "S", 1, std::vector<std::size_t>{0}, "R", 2,
      std::vector<std::size_t>{0}));

  StatusOr<std::string> image = EncodeSnapshot("full", *state);
  ASSERT_TRUE(image.ok()) << image.status().message();
  std::string session;
  SessionState decoded;
  Status status = DecodeSnapshot(*image, &session, &decoded);
  ASSERT_TRUE(status.ok()) << status.message();

  EXPECT_EQ(decoded.version, 41u);
  EXPECT_TRUE(decoded.has_query);
  EXPECT_EQ(decoded.query.ToString(), state->query.ToString());
  ASSERT_EQ(decoded.fds.size(), 1u);
  EXPECT_EQ(decoded.fds[0].ToString(), fd.ToString());
  ASSERT_EQ(decoded.constraints.size(), 2u);
  EXPECT_EQ(decoded.constraints[0]->ToString(),
            state->constraints[0]->ToString());
  EXPECT_EQ(decoded.constraints[1]->ToString(),
            state->constraints[1]->ToString());
  // Encoding the decoded state reproduces the image byte for byte.
  StatusOr<std::string> again = EncodeSnapshot("full", decoded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *image);
}

TEST(SnapshotStoreTest, SaveThenLoadAllInstallsSession) {
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  SnapshotStore store(tmp.path());
  ASSERT_TRUE(store.Prepare().ok());
  StatusOr<Database> db = ParseDatabase("M(1) = { (m0), (m1) }");
  ASSERT_TRUE(db.ok());
  std::unique_ptr<SessionState> state = MakeState(*db);
  state->version = 3;
  ASSERT_TRUE(store.Save("alpha", *state).ok());

  SessionRegistry sessions;
  SnapshotStore::LoadReport report = store.LoadAll(&sessions);
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  std::shared_ptr<SessionState> loaded = sessions.GetOrCreate("alpha");
  EXPECT_EQ(loaded->version, 3u);
  EXPECT_EQ(FormatDatabase(loaded->db), FormatDatabase(state->db));
}

TEST(SnapshotStoreTest, LoadAllRemovesStaleTempFiles) {
  TempDir tmp;
  SnapshotStore store(tmp.path());
  ASSERT_TRUE(store.Prepare().ok());
  const std::string stale =
      tmp.path() + "/ghost.zo1snap.tmp.12345.0";
  WriteWholeFile(stale, "half-written garbage");
  SessionRegistry sessions;
  SnapshotStore::LoadReport report = store.LoadAll(&sessions);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.tmp_removed, 1u);
  EXPECT_NE(::access(stale.c_str(), F_OK), 0) << "stale tmp not removed";
}

struct CorruptionCase {
  const char* name;
  // Mutates a valid snapshot image into a corrupt one.
  std::string (*corrupt)(std::string image);
};

std::string Truncate(std::string image) {
  return image.substr(0, image.size() / 2);
}
std::string FlipBodyBit(std::string image) {
  image[image.size() - 2] ^= 0x01;  // Inside the body; CRC now mismatches.
  return image;
}
std::string BadMagic(std::string image) {
  image[0] = 'X';
  return image;
}
std::string BodyBytesLie(std::string image) {
  std::size_t pos = image.find("body_bytes=");
  image.insert(pos + 11, "9");  // Claims a 10× larger body than present.
  return image;
}
std::string EmptyFile(std::string) { return ""; }

const CorruptionCase kCorruptionCases[] = {
    {"truncated", Truncate},   {"bitflip", FlipBodyBit},
    {"badmagic", BadMagic},    {"bodylie", BodyBytesLie},
    {"emptyfile", EmptyFile},
};

TEST(SnapshotStoreTest, CorruptSnapshotsAreQuarantinedNotLoaded) {
  StatusOr<Database> db = ParseDatabase("R(1) = { (a) }");
  ASSERT_TRUE(db.ok());
  std::unique_ptr<SessionState> state = MakeState(*db);
  for (const CorruptionCase& test_case : kCorruptionCases) {
    SCOPED_TRACE(test_case.name);
    TempDir tmp;
    SnapshotStore store(tmp.path());
    ASSERT_TRUE(store.Prepare().ok());
    StatusOr<std::string> image = EncodeSnapshot("victim", *state);
    ASSERT_TRUE(image.ok());
    const std::string path = store.PathFor("victim");
    WriteWholeFile(path, test_case.corrupt(*image));

    SessionRegistry sessions;
    SnapshotStore::LoadReport report = store.LoadAll(&sessions);
    EXPECT_EQ(report.loaded, 0u);
    EXPECT_EQ(report.quarantined, 1u);
    // The corrupt file was renamed aside, not deleted: evidence survives.
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
    EXPECT_EQ(::access((path + ".corrupt").c_str(), F_OK), 0);
    // The session was not created from garbage.
    EXPECT_EQ(sessions.size(), 0u);
  }
}

TEST(SnapshotStoreTest, SessionNameMismatchIsQuarantined) {
  StatusOr<Database> db = ParseDatabase("R(1) = { (a) }");
  ASSERT_TRUE(db.ok());
  std::unique_ptr<SessionState> state = MakeState(*db);
  TempDir tmp;
  SnapshotStore store(tmp.path());
  ASSERT_TRUE(store.Prepare().ok());
  StatusOr<std::string> image = EncodeSnapshot("alice", *state);
  ASSERT_TRUE(image.ok());
  // A snapshot whose header names a different session than its filename
  // (e.g. a hand-copied file) must not silently install as "bob".
  WriteWholeFile(store.PathFor("bob"), *image);
  SessionRegistry sessions;
  SnapshotStore::LoadReport report = store.LoadAll(&sessions);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(sessions.size(), 0u);
}

std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> entries;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") entries.push_back(name);
    }
    ::closedir(d);
  }
  return entries;
}

// Save publishes with an atomic rename, so a LoadAll racing a storm of
// Saves of the same session must only ever observe complete snapshots:
// never a quarantine, never a torn read, never a version that was not
// written. (Saves may *fail* — a concurrent LoadAll sweeps in-flight tmp
// files, which is fine at startup where LoadAll really runs — but they
// must never publish a partial file.)
TEST(SnapshotStoreTest, ConcurrentSavesRacingLoadAllStayAtomic) {
  TempDir tmp;
  SnapshotStore store(tmp.path());
  ASSERT_TRUE(store.Prepare().ok());
  StatusOr<Database> db = ParseDatabase("R(1) = { (race) }");
  ASSERT_TRUE(db.ok());

  constexpr std::uint64_t kSaves = 1000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t v = 1; v <= kSaves; ++v) {
      std::unique_ptr<SessionState> state = MakeState(*db);
      state->version = v;
      (void)store.Save("racer", *state);  // Sweep-induced failures are ok.
    }
    done.store(true);
  });

  std::uint64_t observed = 0;
  std::uint64_t last_version = 0;
  while (!done.load()) {
    SessionRegistry sessions;
    SnapshotStore::LoadReport report = store.LoadAll(&sessions);
    ASSERT_EQ(report.quarantined, 0u)
        << "LoadAll observed a torn snapshot mid-save";
    ASSERT_LE(report.loaded, 1u);
    if (report.loaded == 1) {
      ++observed;
      const std::uint64_t version = sessions.GetOrCreate("racer")->version;
      ASSERT_GE(version, 1u);
      ASSERT_LE(version, kSaves);
      // Versions only move forward: rename publishes monotonically.
      ASSERT_GE(version, last_version);
      last_version = version;
    }
    // Back-to-back LoadAlls would sweep every in-flight tmp and starve
    // the writer's renames; a short pause lets publications land.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer.join();

  // The dust settles: one more Save must land and reload exactly.
  std::unique_ptr<SessionState> final_state = MakeState(*db);
  final_state->version = kSaves + 1;
  ASSERT_TRUE(store.Save("racer", *final_state).ok());
  SessionRegistry sessions;
  SnapshotStore::LoadReport report = store.LoadAll(&sessions);
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(sessions.GetOrCreate("racer")->version, kSaves + 1);
  EXPECT_GT(observed, 0u) << "the race never observed a published snapshot";
}

#if ZEROONE_FAULT_ENABLED

class SnapshotFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Registry::Global().Clear(); }
};

TEST_F(SnapshotFaultTest, TmpFromFaultedSaveIsGoneAndCrashTmpSweptAtLoad) {
  TempDir tmp;
  SnapshotStore store(tmp.path());
  ASSERT_TRUE(store.Prepare().ok());
  StatusOr<Database> db = ParseDatabase("R(1) = { (kept) }");
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(store.Save("s", *MakeState(*db)).ok());

  // The fault fires between temp-write and rename: Save fails and its
  // failure path removes the half-published tmp immediately.
  ASSERT_TRUE(
      fault::Registry::Global().Configure("snap.rename.fail=#1").ok());
  StatusOr<Database> newer = ParseDatabase("R(1) = { (lost) }");
  ASSERT_TRUE(newer.ok());
  EXPECT_FALSE(store.Save("s", *MakeState(*newer)).ok());
  fault::Registry::Global().Clear();
  for (const std::string& name : DirEntries(tmp.path())) {
    EXPECT_EQ(name.find(".tmp."), std::string::npos)
        << "failed Save leaked tmp file " << name;
  }

  // A *crash* in that same window has no failure path: the fully-written
  // tmp stays behind. Even though its content is a valid image, the next
  // LoadAll must sweep it, never load it.
  StatusOr<std::string> image = EncodeSnapshot("s", *MakeState(*newer));
  ASSERT_TRUE(image.ok());
  const std::string stale = store.PathFor("s") + ".tmp.424242.7";
  WriteWholeFile(stale, *image);
  SessionRegistry sessions;
  SnapshotStore::LoadReport report = store.LoadAll(&sessions);
  EXPECT_EQ(report.tmp_removed, 1u);
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_NE(::access(stale.c_str(), F_OK), 0) << "stale tmp not swept";
  // The never-renamed state is invisible; the last published one serves.
  EXPECT_NE(FormatDatabase(sessions.GetOrCreate("s")->db).find("kept"),
            std::string::npos);
  EXPECT_EQ(FormatDatabase(sessions.GetOrCreate("s")->db).find("lost"),
            std::string::npos);
}

TEST_F(SnapshotFaultTest, FailedSaveLeavesOldSnapshotIntact) {
  const char* failing_sites[] = {"snap.write.fail", "snap.fsync.fail",
                                 "snap.rename.fail"};
  for (const char* site : failing_sites) {
    SCOPED_TRACE(site);
    fault::Registry::Global().Clear();
    TempDir tmp;
    SnapshotStore store(tmp.path());
    ASSERT_TRUE(store.Prepare().ok());
    StatusOr<Database> old_db = ParseDatabase("R(1) = { (old) }");
    ASSERT_TRUE(old_db.ok());
    ASSERT_TRUE(store.Save("s", *MakeState(*old_db)).ok());
    const std::string before = ReadWholeFile(store.PathFor("s"));

    ASSERT_TRUE(
        fault::Registry::Global().Configure(std::string(site) + "=#1").ok());
    StatusOr<Database> new_db = ParseDatabase("R(1) = { (new) }");
    ASSERT_TRUE(new_db.ok());
    Status failed = store.Save("s", *MakeState(*new_db));
    EXPECT_FALSE(failed.ok()) << "injected " << site << " must fail Save";
    // Crash-safety contract: the old snapshot is untouched, byte for byte.
    EXPECT_EQ(ReadWholeFile(store.PathFor("s")), before);

    fault::Registry::Global().Clear();
    SessionRegistry sessions;
    SnapshotStore::LoadReport report = store.LoadAll(&sessions);
    EXPECT_EQ(report.loaded, 1u);
    EXPECT_NE(FormatDatabase(sessions.GetOrCreate("s")->db).find("old"),
              std::string::npos);
  }
}

TEST_F(SnapshotFaultTest, InjectedCorruptionIsCaughtAtLoad) {
  TempDir tmp;
  SnapshotStore store(tmp.path());
  ASSERT_TRUE(store.Prepare().ok());
  ASSERT_TRUE(
      fault::Registry::Global().Configure("snap.corrupt=#1").ok());
  StatusOr<Database> db = ParseDatabase("R(1) = { (a), (b) }");
  ASSERT_TRUE(db.ok());
  // The write itself "succeeds" — the corruption is only discoverable at
  // load time, exactly like real silent media corruption.
  ASSERT_TRUE(store.Save("s", *MakeState(*db)).ok());
  fault::Registry::Global().Clear();

  SessionRegistry sessions;
  SnapshotStore::LoadReport report = store.LoadAll(&sessions);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(sessions.size(), 0u);
}

#endif  // ZEROONE_FAULT_ENABLED

}  // namespace
}  // namespace svc
}  // namespace zeroone
