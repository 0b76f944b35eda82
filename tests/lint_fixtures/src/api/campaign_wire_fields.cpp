// wire-determinism fixture: src/api/campaign_wire* is wire scope — the line
// codec every campaign document is written with lives there, so a double
// reaching a stream at default precision is flagged as it is in src/io/.
#include <ostream>

void write_latency_field(std::ostream& os) {
  double latency = 14.5;
  os << ' ' << latency;  // default-precision stream
}
