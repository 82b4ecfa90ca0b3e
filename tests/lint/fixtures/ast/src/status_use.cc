// Fixture: status-must-use.
//
// A bare expression statement calling a Status-returning function (free
// or member) must be flagged; assigning, branching, or casting to
// (void) must not; an allow-comment suppresses a justified case.
#include <string>

class Status {
 public:
  bool ok() const { return true; }
};

Status DoIo(const std::string& path);

class Guard {
 public:
  Status Checkpoint();
};

namespace fixture {

void DropsFree() {
  DoIo("x");  // expect(status-must-use)
}

void DropsMember(Guard& guard) {
  guard.Checkpoint();  // expect(status-must-use) // expect(no-dropped-status)
}

void ChecksResult() {
  Status st = DoIo("x");
  if (!st.ok()) return;
  (void)DoIo("y");  // explicit discard via (void): sanctioned opt-out
}

void AllowedDrop() {
  DoIo("z");  // ssjoin-lint: allow(status-must-use)
}

}  // namespace fixture
