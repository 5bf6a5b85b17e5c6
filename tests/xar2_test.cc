// XAR2, the mmap-navigable snapshot container (format 2): heap-vs-mapped
// answer parity across the archive-family backends (Retrieve, Query,
// History, Diff, EXPLAIN probe counts, the Fig. 5 XML written over the
// flat view), reads of a mapped store that never build the heap archive,
// ingest into a mapped store (an earlier build's XAR2 with its XML
// `archive` section included), the committed XAR1 compatibility fixtures
// under tests/data/ and their migration to XAR2, and the corrupt-input
// cases: flip-every-byte / truncate-everywhere sweeps over an XAR2 file
// (kDataLoss, never an out-of-bounds read) and CRC-valid flat sections
// that break an archive invariant (the first ingest fails with a Status).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "core/archive.h"
#include "core/changes.h"
#include "core/flat_archive.h"
#include "core/tree_view.h"
#include "persist/container.h"
#include "vfs/vfs.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xarch {
namespace {

constexpr const char* kKeys = R"(
(/, (db, {}))
(/db, (entry, {id}))
(/db/entry, (note, {}))
)";

keys::KeySpecSet MustSpec() {
  auto spec = keys::ParseKeySpecSet(kKeys);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

StoreOptions OptionsWithSpec(bool use_index = false) {
  StoreOptions options;
  options.spec = MustSpec();
  options.use_index = use_index;
  return options;
}

/// The store-canonical form of a version (keyed siblings in fingerprint
/// order, default pretty serialization).
std::string Canonical(const std::string& text) {
  core::Archive archive(MustSpec());
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(archive.AddVersion(**doc).ok());
  auto back = archive.RetrieveVersion(1);
  EXPECT_TRUE(back.ok());
  return xml::Serialize(**back);
}

std::string Entry(int id, const std::string& note) {
  return "<entry><id>" + std::to_string(id) + "</id><note>" + note +
         "</note></entry>";
}

/// Four deterministic versions: entry 2 disappears in v2 and returns in
/// v3, entry 1's note changes in v2, entry 3 appears in v2 and is edited
/// in v4. The SAME texts built the committed XAR1 fixtures — keep the two
/// in sync if this ever changes (tests/data/README.md).
std::vector<std::string> FixtureVersions() {
  return {
      Canonical("<db>" + Entry(1, "alpha") + Entry(2, "beta") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(3, "gamma") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(2, "beta") +
                Entry(3, "gamma") + "</db>"),
      Canonical("<db>" + Entry(1, "changed") + Entry(2, "beta") +
                Entry(3, "gamma2") + "</db>"),
  };
}

std::unique_ptr<Store> MakeLiveStore(const std::string& backend,
                                     bool use_index = false) {
  auto store = StoreRegistry::Create(backend, OptionsWithSpec(use_index));
  EXPECT_TRUE(store.ok()) << backend << ": " << store.status().ToString();
  std::unique_ptr<Store> out = std::move(store).value();
  for (const std::string& text : FixtureVersions()) {
    EXPECT_TRUE(out->Append(text).ok()) << backend;
  }
  return out;
}

/// A heap archive fed the fixture versions, configured as `backend`
/// configures its own.
core::Archive LiveArchive(const std::string& backend) {
  core::ArchiveOptions options;
  if (backend == "archive-weave") {
    options.frontier = core::FrontierStrategy::kWeave;
  }
  core::Archive archive(MustSpec(), options);
  for (const std::string& text : FixtureVersions()) {
    auto doc = xml::Parse(text);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_TRUE(archive.AddVersion(**doc).ok()) << backend;
  }
  return archive;
}

/// The flat archive of a verified XAR2 container, attached in place.
StatusOr<core::FlatArchive> AttachFlat(const persist::SnapshotView& snapshot) {
  core::FlatArchive::Sections sections;
  XARCH_ASSIGN_OR_RETURN(sections.meta, snapshot.RawSection("meta"));
  XARCH_ASSIGN_OR_RETURN(sections.strings, snapshot.RawSection("strings"));
  XARCH_ASSIGN_OR_RETURN(sections.stamps, snapshot.RawSection("stamps"));
  XARCH_ASSIGN_OR_RETURN(sections.nodes, snapshot.RawSection("nodes"));
  XARCH_ASSIGN_OR_RETURN(sections.parts, snapshot.RawSection("parts"));
  XARCH_ASSIGN_OR_RETURN(sections.attrs, snapshot.RawSection("attrs"));
  XARCH_ASSIGN_OR_RETURN(sections.buckets, snapshot.RawSection("buckets"));
  XARCH_ASSIGN_OR_RETURN(sections.content, snapshot.RawSection("content"));
  return core::FlatArchive::Attach(sections);
}

/// Re-emits an XAR2 container section by section, in file order and raw
/// as current builds store them. `edit` sees each section first: it may
/// rewrite the payload and add sections of its own ahead of it.
std::string RewriteXar2(
    const persist::SnapshotView& snapshot,
    const std::function<void(const std::string& name, std::string* payload,
                             persist::SnapshotWriter* writer)>& edit) {
  persist::SnapshotWriter::Options options;
  options.format = persist::kContainerFormatVersion2;
  persist::SnapshotWriter writer(options);
  for (const std::string& name : snapshot.names()) {
    auto payload = snapshot.SectionString(name);
    EXPECT_TRUE(payload.ok()) << name << ": " << payload.status().ToString();
    std::string edited = payload.ok() ? std::move(payload).value() : "";
    edit(name, &edited, &writer);
    writer.AddRaw(name, std::move(edited));
  }
  return writer.Serialize();
}

StatusOr<std::string> RunQuery(Store& store, const std::string& q) {
  StringSink sink;
  XARCH_RETURN_NOT_OK(store.Query(q, sink));
  return std::move(sink).Take();
}

/// Fresh private scratch directory per test, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("xarch_xar2_test_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string File(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  auto bytes = vfs::Vfs::Posix()->ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  auto file =
      vfs::Vfs::Posix()->OpenWritable(path, vfs::WriteMode::kTruncate);
  ASSERT_TRUE(file.ok()) << path << ": " << file.status().ToString();
  ASSERT_TRUE((*file)->Append(bytes).ok()) << path;
  ASSERT_TRUE((*file)->Close().ok()) << path;
}

// ----------------------------------------------- heap vs. mapped parity

// (backend, use_index, open kind): every combination must answer every
// read byte-identically to the live heap store it was saved from. "posix"
// and "mmap" open a real file (the registry adopts the mapping either
// way); "bytes" goes through OpenFromBytes, which copies.
class Xar2ParityTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, bool, std::string>> {};

TEST_P(Xar2ParityTest, MappedAnswersMatchHeapByteForByte) {
  const std::string& backend = std::get<0>(GetParam());
  const bool use_index = std::get<1>(GetParam());
  const std::string& open_kind = std::get<2>(GetParam());
  std::unique_ptr<Store> live = MakeLiveStore(backend, use_index);

  ScratchDir dir("parity");
  const std::string path = dir.File("store.xar");
  StatusOr<std::unique_ptr<Store>> reopened_or =
      Status::Unimplemented("open kind");
  if (open_kind == "bytes") {
    auto bytes = live->SaveToBytes();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_EQ(bytes->substr(0, 4), "XAR2");
    reopened_or = StoreRegistry::Global().OpenFromBytes(*bytes);
  } else {
    ASSERT_TRUE(live->SaveToFile(path).ok());
    vfs::Vfs* vfs =
        open_kind == "mmap" ? vfs::Vfs::Mmap() : vfs::Vfs::Posix();
    reopened_or = StoreRegistry::Open(path, {}, vfs);
  }
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  Store& reopened = **reopened_or;

  EXPECT_EQ(reopened.name(), live->name());
  EXPECT_EQ(reopened.capabilities(), live->capabilities());
  ASSERT_EQ(reopened.version_count(), live->version_count());

  for (Version v = 1; v <= live->version_count(); ++v) {
    auto a = live->Retrieve(v);
    auto b = reopened.Retrieve(v);
    ASSERT_TRUE(a.ok() && b.ok()) << "v" << v << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << "v" << v;
  }
  {
    StringSink a, b;
    ASSERT_TRUE(live->RetrieveTo(2, a).ok());
    ASSERT_TRUE(reopened.RetrieveTo(2, b).ok());
    EXPECT_EQ(a.data(), b.data());
  }

  for (const char* q : {
           "/db/entry[id=\"2\"] @ version 1",
           "/db/entry[*] @ versions 1..4",
           "/db/entry[id=\"2\"] history",
           "/db diff 1 3",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(reopened, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << q;
  }
  {
    // Error parity too: a history miss fails with the same status text on
    // both sides.
    auto a = RunQuery(*live, "/db/entry[id=\"9\"] history");
    auto b = RunQuery(reopened, "/db/entry[id=\"9\"] history");
    ASSERT_FALSE(a.ok() || b.ok());
    EXPECT_EQ(a.status().ToString(), b.status().ToString());
  }

  {
    auto a = live->History({{"db", {}}, {"entry", {{"id", "3"}}}});
    auto b = reopened.History({{"db", {}}, {"entry", {{"id", "3"}}}});
    ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
    EXPECT_EQ(a->ToString(), b->ToString());
  }
  {
    auto a = live->DiffVersions(1, 4);
    auto b = reopened.DiffVersions(1, 4);
    ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
    ASSERT_EQ(a->size(), b->size());
  }

  // EXPLAIN: the mapped evaluation reports mapped=true on its access line
  // and — probe for probe — the same counts as the heap run; stripping
  // the marker must reproduce the heap report exactly.
  {
    auto a = RunQuery(*live, "explain /db/entry[id=\"2\"] @ version 1");
    auto b = RunQuery(reopened, "explain /db/entry[id=\"2\"] @ version 1");
    ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
    const std::string marker = " (mapped=true)";
    EXPECT_EQ(a->find(marker), std::string::npos) << *a;
    const size_t at = b->find(marker);
    ASSERT_NE(at, std::string::npos) << *b;
    std::string stripped = *b;
    stripped.erase(at, marker.size());
    EXPECT_EQ(stripped, *a);
  }
}

// The archive's Fig. 5 XML written over a saved snapshot's flat view is
// byte for byte what Archive::ToXml gives for the live heap archive, under
// every combination of the E13 ablation options — so stored-byte counts
// and the heap rebuild of a mapped store see the archive a heap store
// sees. The snapshot itself carries no XML copy of the archive.
TEST_P(Xar2ParityTest, ViewWriterMatchesHeapToXml) {
  const std::string& backend = std::get<0>(GetParam());
  const bool use_index = std::get<1>(GetParam());
  const std::string& open_kind = std::get<2>(GetParam());
  std::unique_ptr<Store> live = MakeLiveStore(backend, use_index);

  ScratchDir dir("writer");
  const std::string path = dir.File("store.xar");
  StatusOr<persist::SnapshotView> snapshot =
      Status::Unimplemented("open kind");
  if (open_kind == "bytes") {
    auto bytes = live->SaveToBytes();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    snapshot = persist::SnapshotView::OpenFromBytes(*bytes);
  } else {
    ASSERT_TRUE(live->SaveToFile(path).ok());
    vfs::Vfs* vfs =
        open_kind == "mmap" ? vfs::Vfs::Mmap() : vfs::Vfs::Posix();
    auto file = vfs->Map(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    snapshot = persist::SnapshotView::Adopt(std::move(file).value());
  }
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_FALSE(snapshot->HasSection("archive"));
  auto flat = AttachFlat(*snapshot);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  const core::FlatArchiveView view(&*flat);
  const core::Archive heap = LiveArchive(backend);

  for (bool pretty : {false, true}) {
    for (bool inherit : {false, true}) {
      for (bool interval : {false, true}) {
        core::ArchiveSerializeOptions options;
        options.pretty = pretty;
        options.inherit_timestamps = inherit;
        options.interval_encoding = interval;
        std::string written;
        core::WriteArchiveXml(
            view, options,
            [&written](std::string_view chunk) { written.append(chunk); });
        EXPECT_EQ(written, heap.ToXml(options))
            << "pretty=" << pretty << " inherit=" << inherit
            << " interval=" << interval;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchiveFamily, Xar2ParityTest,
    ::testing::Combine(::testing::Values("archive", "archive-weave"),
                       ::testing::Bool(),
                       ::testing::Values("posix", "mmap", "bytes")),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         (std::get<1>(info.param) ? "indexed" : "noindex") +
                         "_" + std::get<2>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------- ingest promotion

TEST(Xar2PromotionTest, IngestIntoMappedStoreMaterializesOnce) {
  std::unique_ptr<Store> live = MakeLiveStore("archive", /*use_index=*/true);
  auto bytes = live->SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  auto reopened_or = StoreRegistry::Global().OpenFromBytes(*bytes);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  Store& reopened = **reopened_or;

  // Before any write the snapshot round-trips bit-for-bit: the mapped
  // store's SaveToBytes is the container it was opened from.
  auto resaved = reopened.SaveToBytes();
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(*resaved, *bytes);

  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  ASSERT_TRUE(reopened.Append(v5).ok());
  EXPECT_EQ(reopened.version_count(), live->version_count() + 1);
  auto got = reopened.Retrieve(5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, v5);
  // Old versions survive the promotion byte-for-byte.
  EXPECT_EQ(*reopened.Retrieve(2), *live->Retrieve(2));
  auto history = RunQuery(reopened, "/db/entry[id=\"1\"] history");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(*history, "/db/entry{id=1}: 1-5\n");

  // The next save re-encodes the promoted heap archive as XAR2, and that
  // snapshot reopens with everything intact.
  auto after = reopened.SaveToBytes();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->substr(0, 4), "XAR2");
  auto again = StoreRegistry::Global().OpenFromBytes(*after);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->version_count(), 5u);
  EXPECT_EQ(*(*again)->Retrieve(5), v5);
}

// An XAR2 file written by an earlier build also carries an "archive"
// section: the Fig. 5 XML, LZSS-compressed, next to the flat sections.
// Current builds ignore it. The file still opens mapped, answers like the
// live store, and takes an ingest; the next save drops the section.
TEST(Xar2PromotionTest, EarlierXar2WithArchiveSectionOpensReadsAndIngests) {
  std::unique_ptr<Store> live = MakeLiveStore("archive", /*use_index=*/true);
  auto bytes = live->SaveToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto current = persist::SnapshotView::OpenFromBytes(*bytes);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  core::ArchiveSerializeOptions compact;
  compact.pretty = false;
  compact.indent_width = 0;
  const std::string archive_xml = LiveArchive("archive").ToXml(compact);
  const std::string earlier = RewriteXar2(
      *current, [&](const std::string& name, std::string*,
                    persist::SnapshotWriter* writer) {
        // Earlier builds wrote it between "opts" and the flat sections.
        if (name == "meta") writer->Add("archive", archive_xml);
      });
  auto earlier_view = persist::SnapshotView::OpenFromBytes(earlier);
  ASSERT_TRUE(earlier_view.ok()) << earlier_view.status().ToString();
  ASSERT_TRUE(earlier_view->HasSection("archive"));

  auto reopened_or = StoreRegistry::Global().OpenFromBytes(earlier);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  Store& reopened = **reopened_or;
  ASSERT_EQ(reopened.version_count(), live->version_count());
  for (Version v = 1; v <= live->version_count(); ++v) {
    EXPECT_EQ(*reopened.Retrieve(v), *live->Retrieve(v)) << "v" << v;
  }
  for (const char* q : {"/db/entry[*] @ versions 1..4", "/db diff 1 4"}) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(reopened, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << q;
  }
  EXPECT_EQ(reopened.Stats().stored_bytes, live->Stats().stored_bytes);

  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  ASSERT_TRUE(reopened.Append(v5).ok());
  ASSERT_TRUE(live->Append(v5).ok());
  EXPECT_EQ(*reopened.Retrieve(5), v5);
  auto a = live->SaveToBytes();
  auto b = reopened.SaveToBytes();
  ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
  EXPECT_EQ(*a, *b);
}

// ------------------------------------------------- mapped reads stay flat

// Opening an XAR2 file through the mmap VFS and answering every read —
// Retrieve, History, lookup / scan / EXPLAIN / diff queries,
// DiffVersions, Stats, ByteSize and StoredBytes — navigates the mapped
// records only: no xml::Node is created, so no heap archive is built, and
// each answer equals the live heap store's. Only ingest rebuilds the heap
// archive, and the store must then save the same bytes as a heap store
// that was fed the same versions.
class Xar2MappedReadTest : public ::testing::TestWithParam<bool> {};

TEST_P(Xar2MappedReadTest, ReadsNeverBuildTheHeapArchive) {
  const bool use_index = GetParam();
  std::unique_ptr<Store> live = MakeLiveStore("archive", use_index);
  ScratchDir dir("mapped");
  const std::string path = dir.File("store.xar");
  ASSERT_TRUE(live->SaveToFile(path).ok());
  auto mapped_or = StoreRegistry::Open(path, {}, vfs::Vfs::Mmap());
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  Store& mapped = **mapped_or;

  // The live store's answers, taken before the window below.
  auto live_diff = live->DiffVersions(1, 4);
  ASSERT_TRUE(live_diff.ok()) << live_diff.status().ToString();
  auto live_diff_query = RunQuery(*live, "/db diff 1 3");
  ASSERT_TRUE(live_diff_query.ok()) << live_diff_query.status().ToString();
  const StoreStats live_stats = live->Stats();
  const std::string live_stored = live->StoredBytes();

  const uint64_t created_before = xml::Node::CreatedCount();
  for (Version v = 1; v <= mapped.version_count(); ++v) {
    auto got = mapped.Retrieve(v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *live->Retrieve(v)) << "v" << v;
  }
  auto history = mapped.History({{"db", {}}, {"entry", {{"id", "2"}}}});
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history->ToString(), "1,3-4");
  for (const char* q : {
           "/db/entry[id=\"2\"] @ version 3",
           "/db @ version 2",
           "/db/entry[*] @ versions 1..4",
       }) {
    auto a = RunQuery(*live, q);
    auto b = RunQuery(mapped, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << q;
  }
  auto explain = RunQuery(mapped, "explain /db/entry[id=\"3\"] @ version 4");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("(mapped=true)"), std::string::npos) << *explain;
  auto diff = mapped.DiffVersions(1, 4);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(core::FormatChanges(*diff), core::FormatChanges(*live_diff));
  auto diff_query = RunQuery(mapped, "/db diff 1 3");
  ASSERT_TRUE(diff_query.ok()) << diff_query.status().ToString();
  EXPECT_EQ(*diff_query, *live_diff_query);
  const StoreStats stats = mapped.Stats();
  EXPECT_EQ(stats.node_count, live_stats.node_count);
  EXPECT_EQ(stats.stored_bytes, live_stats.stored_bytes);
  EXPECT_EQ(mapped.ByteSize(), live_stats.stored_bytes);
  EXPECT_EQ(mapped.StoredBytes(), live_stored);
  EXPECT_EQ(xml::Node::CreatedCount(), created_before)
      << "a mapped read built xml::Nodes (heap archive load)";

  // Ingest rebuilds the heap archive once; afterwards the store saves
  // exactly what a heap store fed the same five versions saves.
  const std::string v5 =
      Canonical("<db>" + Entry(2, "beta") + Entry(5, "epsilon") + "</db>");
  ASSERT_TRUE(mapped.Append(v5).ok());
  ASSERT_TRUE(live->Append(v5).ok());
  auto a = live->SaveToBytes();
  auto b = mapped.SaveToBytes();
  ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
  EXPECT_EQ(*a, *b);
  for (Version v = 1; v <= live->version_count(); ++v) {
    EXPECT_EQ(*mapped.Retrieve(v), *live->Retrieve(v)) << "v" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(IndexedAndNot, Xar2MappedReadTest, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "indexed"
                                                          : "noindex");
                         });

// --------------------------------------------- XAR1 fixtures (tests/data)

// Committed XAR1 snapshot files, written by an earlier build whose
// archive backends could still save format 1. The registry must keep
// opening them, and every read must match a live heap store built from
// the same version texts — byte for byte. XAR1 is read-only now: the
// files are frozen bytes that cannot be regenerated (tests/data/README.md).
class Xar1FixtureTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Xar1FixtureTest, CommittedSnapshotStillOpensByteIdentically) {
  const std::string& backend = GetParam();
  const std::string path =
      std::string(XARCH_TEST_DATA_DIR) + "/xar1_" + backend + ".xar";
  const std::string bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), 4u) << path;
  ASSERT_EQ(bytes.substr(0, 4), "XAR1") << path;

  auto reopened_or = StoreRegistry::Open(path);
  ASSERT_TRUE(reopened_or.ok()) << path << ": "
                                << reopened_or.status().ToString();
  Store& reopened = **reopened_or;
  std::unique_ptr<Store> live = MakeLiveStore(backend);

  EXPECT_EQ(reopened.name(), live->name());
  ASSERT_EQ(reopened.version_count(), live->version_count());
  for (Version v = 1; v <= live->version_count(); ++v) {
    auto a = live->Retrieve(v);
    auto b = reopened.Retrieve(v);
    ASSERT_TRUE(a.ok() && b.ok()) << "v" << v << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << backend << " v" << v;
  }
  auto a = RunQuery(*live, "/db/entry[*] @ versions 1..4");
  auto b = RunQuery(reopened, "/db/entry[*] @ versions 1..4");
  ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
  EXPECT_EQ(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(
    CommittedFixtures, Xar1FixtureTest,
    ::testing::Values("archive", "archive-weave", "incr-diff", "full-copy"),
    [](const auto& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// An XAR1 snapshot reopens through the heap restorer and its next save is
// XAR2 — the v1 -> v2 upgrade is one save away, with no way back. The
// migrated file reopens mapped and answers like the XAR1 original.
TEST(Xar1MigrationTest, CommittedXar1SnapshotSavesAsXar2) {
  const std::string path =
      std::string(XARCH_TEST_DATA_DIR) + "/xar1_archive.xar";
  ASSERT_EQ(ReadAll(path).substr(0, 4), "XAR1") << path;
  auto xar1 = StoreRegistry::Open(path);
  ASSERT_TRUE(xar1.ok()) << xar1.status().ToString();

  ScratchDir dir("migrate");
  const std::string migrated_path = dir.File("migrated.xar");
  ASSERT_TRUE((*xar1)->SaveToFile(migrated_path).ok());
  EXPECT_EQ(ReadAll(migrated_path).substr(0, 4), "XAR2");
  auto xar2 = StoreRegistry::Open(migrated_path, {}, vfs::Vfs::Mmap());
  ASSERT_TRUE(xar2.ok()) << xar2.status().ToString();

  ASSERT_EQ((*xar2)->version_count(), (*xar1)->version_count());
  for (Version v = 1; v <= (*xar1)->version_count(); ++v) {
    EXPECT_EQ(*(*xar2)->Retrieve(v), *(*xar1)->Retrieve(v)) << "v" << v;
  }
  for (const char* q : {
           "/db/entry[*] @ versions 1..4",
           "/db/entry[id=\"2\"] history",
           "/db diff 1 4",
       }) {
    auto a = RunQuery(**xar1, q);
    auto b = RunQuery(**xar2, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << q;
  }
}

// -------------------------------------------------- corruption sweeps

std::string SavedXar2Snapshot(const std::string& path) {
  std::unique_ptr<Store> live = MakeLiveStore("archive", /*use_index=*/true);
  EXPECT_TRUE(live->SaveToFile(path).ok());
  std::string good = ReadAll(path);
  EXPECT_EQ(good.substr(0, 4), "XAR2");
  EXPECT_TRUE(StoreRegistry::Open(path).ok());
  return good;
}

TEST(Xar2CorruptionTest, EveryFlippedByteFailsWithDataLoss) {
  ScratchDir dir("flip");
  const std::string path = dir.File("s.xar");
  const std::string good = SavedXar2Snapshot(path);
  // Stride-1 sweep: every single-byte flip must be caught — header and
  // section-table bytes by the header/table CRCs, payload bytes by their
  // section CRCs — before any flat-section decoding runs. Both open paths
  // (buffered and mmap-adopted) are exercised.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    WriteAll(path, bad);
    auto buffered = StoreRegistry::Open(path);
    EXPECT_FALSE(buffered.ok()) << "flip at byte " << i;
    EXPECT_EQ(buffered.status().code(), StatusCode::kDataLoss)
        << "flip at byte " << i << ": " << buffered.status().ToString();
    auto mapped = StoreRegistry::Open(path, {}, vfs::Vfs::Mmap());
    EXPECT_EQ(mapped.status().code(), StatusCode::kDataLoss)
        << "mmap flip at byte " << i;
  }
}

// A CRC-valid XAR2 whose flat sections pass FlatArchive::Attach but break
// an archive invariant Attach does not check: a child's timestamp is not
// a subset of its parent's. Reads navigate it as stored; the first ingest
// rebuilds the heap archive, whose checks reject it with a Status, and the
// store stays as it was — mapped, same version count, same answers.
TEST(Xar2CorruptionTest, FlatInvariantViolationFailsTheFirstIngest) {
  std::unique_ptr<Store> live = MakeLiveStore("archive");
  auto bytes = live->SaveToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto snapshot = persist::SnapshotView::OpenFromBytes(*bytes);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto flat = AttachFlat(*snapshot);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();

  // A stamped inner node, its first child, and a pooled stamp that is not
  // a subset of the node's.
  uint32_t child = 0, bad_stamp_plus1 = 0;
  for (uint32_t n = 1; n < flat->node_count() && child == 0; ++n) {
    const uint32_t own =
        flat->NodeField(n, core::FlatArchive::kNodeStampIdPlus1);
    if (own == 0 ||
        flat->NodeField(n, core::FlatArchive::kNodeChildCount) == 0) {
      continue;
    }
    const VersionSet parent = flat->StampAt(own - 1);
    for (uint32_t id = 0; id < flat->stamp_count(); ++id) {
      if (!parent.IsSupersetOf(flat->StampAt(id))) {
        child = flat->NodeField(n, core::FlatArchive::kNodeChildBegin);
        bad_stamp_plus1 = id + 1;
        break;
      }
    }
  }
  ASSERT_NE(child, 0u) << "no stamped inner node to corrupt";
  const std::string hostile = RewriteXar2(
      *snapshot, [&](const std::string& name, std::string* payload,
                     persist::SnapshotWriter*) {
        if (name != "nodes") return;
        const size_t at = 4 + size_t{child} * 4 * core::FlatArchive::kNodeFields +
                          4 * core::FlatArchive::kNodeStampIdPlus1;
        ASSERT_LE(at + 4, payload->size());
        for (int i = 0; i < 4; ++i) {
          (*payload)[at + i] =
              static_cast<char>((bad_stamp_plus1 >> (8 * i)) & 0xff);
        }
      });
  ASSERT_NE(hostile, *bytes);

  auto store_or = StoreRegistry::Global().OpenFromBytes(hostile);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  Store& store = **store_or;
  auto read_all = [&store]() {
    std::vector<std::string> out;
    for (Version v = 1; v <= store.version_count(); ++v) {
      auto got = store.Retrieve(v);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      out.push_back(got.ok() ? *got : got.status().ToString());
    }
    auto range = RunQuery(store, "/db/entry[*] @ versions 1..4");
    out.push_back(range.ok() ? *range : range.status().ToString());
    return out;
  };
  const Version count = store.version_count();
  const std::vector<std::string> before = read_all();

  const std::string v5 =
      Canonical("<db>" + Entry(1, "changed") + Entry(4, "delta") + "</db>");
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status appended = store.Append(v5);
    EXPECT_FALSE(appended.ok()) << "attempt " << attempt;
    EXPECT_NE(appended.message().find("not a subset"), std::string::npos)
        << appended.ToString();
    EXPECT_EQ(store.version_count(), count);
    EXPECT_EQ(read_all(), before);
  }
  auto resaved = store.SaveToBytes();
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_EQ(*resaved, hostile);
}

TEST(Xar2CorruptionTest, EveryTruncationFailsCleanly) {
  ScratchDir dir("cut");
  const std::string path = dir.File("s.xar");
  const std::string good = SavedXar2Snapshot(path);
  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteAll(path, good.substr(0, cut));
    auto reopened = StoreRegistry::Open(path);
    EXPECT_FALSE(reopened.ok()) << "cut at " << cut;
    if (cut >= 4) {
      // With the magic intact the failure is always a checksum/bounds
      // verdict; shorter prefixes may not even read as a container.
      EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
          << "cut at " << cut << ": " << reopened.status().ToString();
    }
  }
}

}  // namespace
}  // namespace xarch
