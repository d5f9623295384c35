#include <gtest/gtest.h>

#include "common/rng.h"
#include "imci/column_index.h"
#include "imci/compression.h"
#include "plan/logical.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"d", DataType::kDouble, true, true});
  cols.push_back({"s", DataType::kString, true, true});
  return std::make_shared<Schema>(1, "t", cols, 0);
}

ColumnIndexOptions SmallGroups() {
  ColumnIndexOptions o;
  o.row_group_size = 64;
  return o;
}

TEST(ColumnIndexTest, InsertAndLookup) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  ASSERT_TRUE(idx.Insert({int64_t(1), int64_t(10), 1.5, std::string("a")},
                         5).ok());
  Row row;
  ASSERT_TRUE(idx.LookupByPk(1, 5, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 10);
  EXPECT_DOUBLE_EQ(AsDouble(row[2]), 1.5);
  // Not visible to an older snapshot.
  EXPECT_TRUE(idx.LookupByPk(1, 4, &row).IsNotFound());
}

TEST(ColumnIndexTest, OutOfPlaceUpdateKeepsOldVersionReadable) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  ASSERT_TRUE(idx.Insert({int64_t(1), int64_t(10), Value{}, Value{}}, 1).ok());
  ASSERT_TRUE(idx.Update({int64_t(1), int64_t(20), Value{}, Value{}}, 2).ok());
  // Two physical versions exist: RID 0 (old) and RID 1 (new).
  EXPECT_EQ(idx.next_rid(), 2u);
  auto g = idx.group(0);
  EXPECT_TRUE(g->Visible(0, 1));
  EXPECT_FALSE(g->Visible(0, 2));
  EXPECT_FALSE(g->Visible(1, 1));
  EXPECT_TRUE(g->Visible(1, 2));
  EXPECT_EQ(idx.visible_rows(1), 1u);
  EXPECT_EQ(idx.visible_rows(2), 1u);
}

TEST(ColumnIndexTest, DeleteRemovesLocatorMapping) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  ASSERT_TRUE(idx.Insert({int64_t(7), int64_t(1), Value{}, Value{}}, 1).ok());
  ASSERT_TRUE(idx.Delete(7, 2).ok());
  Row row;
  EXPECT_TRUE(idx.LookupByPk(7, 3, &row).IsNotFound());
  EXPECT_TRUE(idx.Delete(7, 3).IsNotFound());
  EXPECT_EQ(idx.visible_rows(1), 1u);  // old snapshot still sees it
  EXPECT_EQ(idx.visible_rows(2), 0u);
}

// The locator maps a PK to its newest version only; a lookup at an older
// read view must still find the version that view sees.
TEST(ColumnIndexTest, LookupByPkAtOlderViewReturnsOlderVersion) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  ASSERT_TRUE(idx.Insert({int64_t(1), int64_t(10), Value{}, Value{}}, 1).ok());
  ASSERT_TRUE(idx.Update({int64_t(1), int64_t(20), Value{}, Value{}}, 2).ok());
  Row row;
  ASSERT_TRUE(idx.LookupByPk(1, 1, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 10);
  ASSERT_TRUE(idx.LookupByPk(1, 2, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 20);
  EXPECT_TRUE(idx.LookupByPk(1, 0, &row).IsNotFound());
}

// Compaction re-appends live rows at the compaction VID and points the
// locator at the new copies; views below it still read the retired group,
// including rows deleted (and so gone from the locator) before compaction.
TEST(ColumnIndexTest, LookupByPkBelowCompactionVid) {
  ColumnIndexOptions opts;
  opts.row_group_size = 4;
  ColumnIndex idx(TestSchema(), opts);
  for (int64_t pk = 0; pk < 4; ++pk) {
    ASSERT_TRUE(idx.Insert({pk, 100 + pk, Value{}, Value{}}, 5).ok());
  }
  for (int64_t pk = 0; pk < 3; ++pk) ASSERT_TRUE(idx.Delete(pk, 8).ok());
  uint32_t moved = 0;
  ASSERT_TRUE(idx.CompactGroup(0, 10, &moved).ok());
  ASSERT_EQ(moved, 1u);
  Row row;
  ASSERT_TRUE(idx.LookupByPk(3, 9, &row).ok());  // the retired copy
  EXPECT_EQ(AsInt(row[1]), 103);
  ASSERT_TRUE(idx.LookupByPk(3, 10, &row).ok());  // the re-appended copy
  EXPECT_EQ(AsInt(row[1]), 103);
  ASSERT_TRUE(idx.LookupByPk(0, 7, &row).ok());  // deleted at VID 8
  EXPECT_EQ(AsInt(row[1]), 100);
  EXPECT_TRUE(idx.LookupByPk(0, 9, &row).IsNotFound());
}

TEST(ColumnIndexTest, GroupsGrowAcrossBoundary) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(idx.Insert({i, i, Value{}, Value{}}, 1).ok());
  }
  EXPECT_EQ(idx.num_groups(), 4u);  // 64*3 = 192 < 200
  EXPECT_EQ(idx.GroupUsed(0), 64u);
  EXPECT_EQ(idx.GroupUsed(3), 8u);
  EXPECT_EQ(idx.visible_rows(1), 200u);
}

TEST(ColumnIndexTest, PackMetaTracksMinMax) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(idx.Insert({i, 1000 + i, Value{}, Value{}}, 1).ok());
  }
  auto g = idx.group(0);
  const PackMeta m = g->meta(idx.PackForColumn(1));
  EXPECT_EQ(m.min_i, 1000);
  EXPECT_EQ(m.max_i, 1063);
  EXPECT_EQ(m.value_count, 64u);
  EXPECT_FALSE(m.sample.empty());
}

TEST(ColumnIndexTest, InsertVidMapDropping) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(idx.Insert({i, i, Value{}, Value{}}, 2).ok());
  }
  // A second, partial group (10 of 64 slots) inserted at VID 3.
  for (int64_t i = 64; i < 74; ++i) {
    ASSERT_TRUE(idx.Insert({i, i, Value{}, Value{}}, 3).ok());
  }
  ASSERT_EQ(idx.num_groups(), 2u);
  ASSERT_EQ(idx.GroupUsed(1), 10u);
  // Oldest active view at VID 1: map must be kept.
  EXPECT_EQ(idx.DropInsertVidMaps(1), 0u);
  // Oldest active view newer than every insert: the full group's map is
  // dropped and its rows stay visible; the partial group keeps its map.
  EXPECT_EQ(idx.DropInsertVidMaps(10), 1u);
  EXPECT_TRUE(idx.group(0)->insert_vids_dropped());
  EXPECT_FALSE(idx.group(1)->insert_vids_dropped());
  EXPECT_EQ(idx.visible_rows(10), 74u);
  EXPECT_EQ(idx.visible_rows(2), 64u);
}

// Compaction is non-blocking (§4.3): a read view below the compaction VID
// still reads the retired group's old versions, and reclamation keeps the
// group while any view at or above the watermark can see one of them.
TEST(ColumnIndexTest, RetiredGroupStaysReadableBelowCompactionVid) {
  ColumnIndexOptions opts;
  opts.row_group_size = 4;
  ImciStore store(opts);
  ColumnIndex* idx = store.CreateIndex(TestSchema());
  for (int64_t pk = 0; pk < 4; ++pk) {
    ASSERT_TRUE(idx->Insert({pk, pk, Value{}, Value{}}, 5).ok());
  }
  for (int64_t pk = 0; pk < 3; ++pk) ASSERT_TRUE(idx->Delete(pk, 8).ok());
  ASSERT_EQ(idx->FindUnderflowGroups(10), std::vector<size_t>{0});
  uint32_t moved = 0;
  ASSERT_TRUE(idx->CompactGroup(0, 10, &moved).ok());
  EXPECT_EQ(moved, 1u);

  auto count_at = [&](Vid vid) -> int64_t {
    PhysOpRef root;
    EXPECT_TRUE(LowerToColumnPlan(LAgg(LScan(1, {0}), {},
                                       {AggSpec{AggKind::kCountStar,
                                                nullptr}}),
                                  &store, &root)
                    .ok());
    ExecContext ctx;
    ctx.read_vid = vid;
    std::vector<Row> out;
    EXPECT_TRUE(RunPlan(root, &ctx, &out).ok());
    return out.size() == 1 ? AsInt(out[0][0]) : -1;
  };
  EXPECT_EQ(count_at(6), 4);  // the retired group's versions
  EXPECT_EQ(count_at(9), 1);
  EXPECT_EQ(count_at(10), 1);  // the moved copy

  // Nothing in the group is visible at VID 3, yet views at 5..9 see its
  // rows and a watermark of 3 admits them: the group must stay.
  EXPECT_EQ(idx->ReclaimRetired(3), 0u);
  EXPECT_EQ(count_at(6), 4);
  EXPECT_EQ(idx->ReclaimRetired(9), 0u);  // pk 3's old version: to VID 10
  EXPECT_EQ(idx->ReclaimRetired(10), 1u);
  EXPECT_EQ(idx->group(0), nullptr);
}

TEST(ColumnIndexTest, PreCommitInvisibleUntilRectified) {
  ColumnIndex idx(TestSchema(), SmallGroups());
  Rid base = idx.PreAllocate(10);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.PreWrite(base + i,
                             {int64_t(i), int64_t(i), Value{}, Value{}}).ok());
  }
  EXPECT_EQ(idx.visible_rows(kMaxVid - 1), 0u);
  Row row;
  EXPECT_TRUE(idx.LookupByPk(3, 100, &row).IsNotFound());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.RectifyInsert(base + i, i, 50).ok());
  }
  EXPECT_EQ(idx.visible_rows(50), 10u);
  ASSERT_TRUE(idx.LookupByPk(3, 50, &row).ok());
}

TEST(RidLocatorTest, PutGetEraseAcrossFlushes) {
  RidLocator locator(/*memtable_limit=*/64);
  for (int64_t pk = 0; pk < 1000; ++pk) locator.Put(pk, pk * 2);
  Rid rid;
  for (int64_t pk = 0; pk < 1000; pk += 37) {
    ASSERT_TRUE(locator.Get(pk, &rid).ok());
    EXPECT_EQ(rid, static_cast<Rid>(pk * 2));
  }
  locator.Erase(500);
  EXPECT_TRUE(locator.Get(500, &rid).IsNotFound());
  // Overwrite maps to the newest RID.
  locator.Put(7, 999);
  ASSERT_TRUE(locator.Get(7, &rid).ok());
  EXPECT_EQ(rid, 999u);
}

TEST(RidLocatorTest, TombstonesSurviveRunFlushes) {
  RidLocator locator(16);
  for (int64_t pk = 0; pk < 400; ++pk) locator.Put(pk, pk);
  for (int64_t pk = 0; pk < 400; pk += 2) locator.Erase(pk);
  // More churn to force flushes and merges.
  for (int64_t pk = 1000; pk < 1400; ++pk) locator.Put(pk, pk);
  Rid rid;
  for (int64_t pk = 0; pk < 400; ++pk) {
    if (pk % 2 == 0) {
      EXPECT_TRUE(locator.Get(pk, &rid).IsNotFound()) << pk;
    } else {
      ASSERT_TRUE(locator.Get(pk, &rid).ok()) << pk;
    }
  }
}

TEST(RidLocatorTest, SnapshotIsImmutableUnderConcurrentWrites) {
  RidLocator locator(32);
  for (int64_t pk = 0; pk < 100; ++pk) locator.Put(pk, pk);
  auto snapshot = locator.Snapshot();
  size_t snap_entries = 0;
  for (auto& runs : snapshot) {
    for (auto& run : runs) snap_entries += run->entries.size();
  }
  EXPECT_EQ(snap_entries, 100u);
  // Mutations after the snapshot do not stain it (functional split, §7).
  for (int64_t pk = 100; pk < 200; ++pk) locator.Put(pk, pk);
  locator.Erase(5);
  size_t snap_entries2 = 0;
  for (auto& runs : snapshot) {
    for (auto& run : runs) snap_entries2 += run->entries.size();
  }
  EXPECT_EQ(snap_entries2, 100u);
  // Restore into a fresh locator reproduces the snapshot state.
  RidLocator restored(32);
  restored.Restore(snapshot);
  Rid rid;
  ASSERT_TRUE(restored.Get(5, &rid).ok());
  EXPECT_TRUE(restored.Get(150, &rid).IsNotFound());
}

// --- Compression property sweeps ------------------------------------------

struct IntPattern {
  const char* name;
  std::function<int64_t(int64_t, Rng&)> gen;
};

class IntCodecParam : public ::testing::TestWithParam<int> {};

TEST_P(IntCodecParam, RoundTripPatterns) {
  Rng rng(GetParam());
  std::vector<std::vector<int64_t>> patterns;
  // Sequential (delta-friendly), constant, small-range, random, negatives.
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 5000; ++i) v.push_back(1'000'000 + i);
  patterns.push_back(v);
  patterns.push_back(std::vector<int64_t>(1000, 42));
  v.clear();
  for (int i = 0; i < 3000; ++i) v.push_back(100 + rng.Next() % 16);
  patterns.push_back(v);
  v.clear();
  for (int i = 0; i < 2000; ++i) v.push_back(static_cast<int64_t>(rng.Next()));
  patterns.push_back(v);
  v.clear();
  for (int i = 0; i < 1000; ++i) v.push_back(-500 + (int64_t)(rng.Next() % 1000));
  patterns.push_back(v);
  patterns.push_back({});                          // empty
  patterns.push_back({int64_t(1) << 62, -(int64_t(1) << 62), 0});  // extremes
  for (auto& p : patterns) {
    std::string buf;
    IntCodec::Encode(p, &buf);
    std::vector<int64_t> out;
    ASSERT_TRUE(IntCodec::Decode(buf, &out).ok());
    EXPECT_EQ(out, p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntCodecParam, ::testing::Values(1, 2, 3));

TEST(IntCodecTest, SequentialDataCompressesWell) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 10000; ++i) v.push_back(i);
  std::string buf;
  IntCodec::Encode(v, &buf);
  // 10k sequential int64s (80KB raw) should bitpack to ~nothing.
  EXPECT_LT(buf.size(), 4000u);
}

TEST(DictCodecTest, RoundTripAndCompression) {
  std::vector<std::string> v;
  const char* tags[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 5000; ++i) v.push_back(tags[i % 3]);
  std::string buf;
  DictCodec::Encode(v, &buf);
  EXPECT_LT(buf.size(), 3000u);  // 2 bits/code + tiny dictionary
  std::vector<std::string> out;
  ASSERT_TRUE(DictCodec::Decode(buf, &out).ok());
  EXPECT_EQ(out, v);
  // Empty and single-value edge cases.
  buf.clear();
  DictCodec::Encode({}, &buf);
  ASSERT_TRUE(DictCodec::Decode(buf, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(DoubleCodecTest, RoundTrip) {
  std::vector<double> v = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  std::string buf;
  DoubleCodec::Encode(v, &buf);
  std::vector<double> out;
  ASSERT_TRUE(DoubleCodec::Decode(buf, &out).ok());
  EXPECT_EQ(out, v);
}

}  // namespace
}  // namespace imci
