// wire-determinism fixture: the rest of src/api/ is not wire scope, so a
// human-readable table may stream a double at default precision unflagged.
#include <ostream>

void print_success_rate(std::ostream& os) {
  double success_rate = 0.75;
  os << "success rate " << success_rate << "\n";
}
