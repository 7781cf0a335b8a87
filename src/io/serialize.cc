#include "io/serialize.h"

#include <charconv>
#include <cmath>
#include <limits>

namespace trendspeed {

namespace {

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Result<double> ParseDouble(const std::string& s) {
  try {
    size_t pos = 0;
    double v = std::stod(s, &pos);
    if (pos != s.size()) {
      return Status::InvalidArgument("trailing characters in number: " + s);
    }
    return v;
  } catch (const std::exception&) {
    return Status::InvalidArgument("not a number: " + s);
  }
}

Result<uint64_t> ParseU64(const std::string& s) {
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not an unsigned integer: " + s);
  }
  return v;
}

Result<RoadClass> ParseClass(const std::string& s) {
  if (s == "highway") return RoadClass::kHighway;
  if (s == "arterial") return RoadClass::kArterial;
  if (s == "local") return RoadClass::kLocal;
  return Status::InvalidArgument("unknown road class: " + s);
}

}  // namespace

CsvTable NetworkNodesToCsv(const RoadNetwork& net) {
  CsvTable t;
  t.header = {"id", "x", "y"};
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    const Node& n = net.node(i);
    t.rows.push_back({std::to_string(i), Fmt(n.x), Fmt(n.y)});
  }
  return t;
}

CsvTable NetworkRoadsToCsv(const RoadNetwork& net) {
  CsvTable t;
  t.header = {"id", "from", "to", "class", "free_flow_kmh"};
  for (RoadId i = 0; i < net.num_roads(); ++i) {
    const Road& r = net.road(i);
    t.rows.push_back({std::to_string(i), std::to_string(r.from),
                      std::to_string(r.to), RoadClassName(r.road_class),
                      Fmt(r.free_flow_kmh)});
  }
  return t;
}

Result<RoadNetwork> NetworkFromCsv(const CsvTable& nodes,
                                   const CsvTable& roads) {
  TS_ASSIGN_OR_RETURN(size_t nx, nodes.ColumnIndex("x"));
  TS_ASSIGN_OR_RETURN(size_t ny, nodes.ColumnIndex("y"));
  TS_ASSIGN_OR_RETURN(size_t rf, roads.ColumnIndex("from"));
  TS_ASSIGN_OR_RETURN(size_t rt, roads.ColumnIndex("to"));
  TS_ASSIGN_OR_RETURN(size_t rc, roads.ColumnIndex("class"));
  TS_ASSIGN_OR_RETURN(size_t rs, roads.ColumnIndex("free_flow_kmh"));
  RoadNetwork::Builder b;
  for (const auto& row : nodes.rows) {
    TS_ASSIGN_OR_RETURN(double x, ParseDouble(row[nx]));
    TS_ASSIGN_OR_RETURN(double y, ParseDouble(row[ny]));
    b.AddNode(x, y);
  }
  for (const auto& row : roads.rows) {
    TS_ASSIGN_OR_RETURN(uint64_t from, ParseU64(row[rf]));
    TS_ASSIGN_OR_RETURN(uint64_t to, ParseU64(row[rt]));
    if (from >= b.num_nodes() || to >= b.num_nodes()) {
      return Status::InvalidArgument("road references missing node");
    }
    TS_ASSIGN_OR_RETURN(RoadClass cls, ParseClass(row[rc]));
    TS_ASSIGN_OR_RETURN(double speed, ParseDouble(row[rs]));
    b.AddRoad(static_cast<NodeId>(from), static_cast<NodeId>(to), cls, speed);
  }
  return b.Finish();
}

CsvTable SpeedFieldToCsv(const SpeedField& field) {
  CsvTable t;
  t.header = {"slot", "road", "speed_kmh"};
  for (uint64_t slot = 0; slot < field.num_slots(); ++slot) {
    for (RoadId road = 0; road < field.num_roads(); ++road) {
      t.rows.push_back({std::to_string(slot), std::to_string(road),
                        Fmt(field.at(slot, road))});
    }
  }
  return t;
}

Result<SpeedField> SpeedFieldFromCsv(const CsvTable& table, size_t num_roads,
                                     uint32_t slots_per_day) {
  TS_ASSIGN_OR_RETURN(size_t cs, table.ColumnIndex("slot"));
  TS_ASSIGN_OR_RETURN(size_t cr, table.ColumnIndex("road"));
  TS_ASSIGN_OR_RETURN(size_t cv, table.ColumnIndex("speed_kmh"));
  if (table.rows.empty()) {
    return Status::InvalidArgument("speed field table has no rows");
  }
  uint64_t max_slot = 0;
  for (const auto& row : table.rows) {
    TS_ASSIGN_OR_RETURN(uint64_t slot, ParseU64(row[cs]));
    max_slot = std::max(max_slot, slot);
  }
  // NaN marks not-yet-assigned cells so gaps and duplicate rows are
  // detectable; a silent 0.0 fill would later be rejected downstream (e.g.
  // HistoryFromRecords requires positive speeds) or, worse, read as a
  // genuinely stopped road.
  constexpr double kUnassigned = std::numeric_limits<double>::quiet_NaN();
  SpeedField field;
  field.slots_per_day = slots_per_day;
  field.speeds.assign(max_slot + 1, std::vector<double>(num_roads, kUnassigned));
  for (const auto& row : table.rows) {
    TS_ASSIGN_OR_RETURN(uint64_t slot, ParseU64(row[cs]));
    TS_ASSIGN_OR_RETURN(uint64_t road, ParseU64(row[cr]));
    if (road >= num_roads) {
      return Status::InvalidArgument("road id out of range");
    }
    TS_ASSIGN_OR_RETURN(double v, ParseDouble(row[cv]));
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("speed must be finite at slot " +
                                     std::to_string(slot) + ", road " +
                                     std::to_string(road));
    }
    if (!std::isnan(field.speeds[slot][road])) {
      return Status::InvalidArgument("duplicate (slot, road) row: slot " +
                                     std::to_string(slot) + ", road " +
                                     std::to_string(road));
    }
    field.speeds[slot][road] = v;
  }
  for (uint64_t slot = 0; slot <= max_slot; ++slot) {
    for (uint64_t road = 0; road < num_roads; ++road) {
      if (std::isnan(field.speeds[slot][road])) {
        return Status::InvalidArgument("missing (slot, road) cell: slot " +
                                       std::to_string(slot) + ", road " +
                                       std::to_string(road));
      }
    }
  }
  return field;
}

CsvTable RecordsToCsv(const std::vector<RawRecord>& records) {
  CsvTable t;
  t.header = {"road", "slot", "speed_kmh"};
  for (const RawRecord& r : records) {
    t.rows.push_back(
        {std::to_string(r.road), std::to_string(r.slot), Fmt(r.speed_kmh)});
  }
  return t;
}

Result<std::vector<RawRecord>> RecordsFromCsv(const CsvTable& table) {
  TS_ASSIGN_OR_RETURN(size_t cr, table.ColumnIndex("road"));
  TS_ASSIGN_OR_RETURN(size_t cs, table.ColumnIndex("slot"));
  TS_ASSIGN_OR_RETURN(size_t cv, table.ColumnIndex("speed_kmh"));
  std::vector<RawRecord> out;
  out.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    RawRecord rec;
    TS_ASSIGN_OR_RETURN(uint64_t road, ParseU64(row[cr]));
    TS_ASSIGN_OR_RETURN(rec.slot, ParseU64(row[cs]));
    TS_ASSIGN_OR_RETURN(rec.speed_kmh, ParseDouble(row[cv]));
    rec.road = static_cast<RoadId>(road);
    out.push_back(rec);
  }
  return out;
}

Result<HistoricalDb> HistoryFromRecords(const std::vector<RawRecord>& records,
                                        size_t num_roads, uint64_t num_slots,
                                        uint32_t slots_per_day) {
  HistoricalDb::Builder builder(num_roads, num_slots, slots_per_day);
  for (const RawRecord& r : records) {
    if (r.road >= num_roads || r.slot >= num_slots) {
      return Status::InvalidArgument("record out of range");
    }
    if (!std::isfinite(r.speed_kmh) || r.speed_kmh <= 0.0) {
      return Status::InvalidArgument(
          "record speed must be positive and finite");
    }
    builder.Add(r.road, r.slot, r.speed_kmh);
  }
  return builder.Finish();
}

}  // namespace trendspeed
