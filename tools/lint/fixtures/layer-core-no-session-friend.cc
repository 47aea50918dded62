// dclint-as: src/core/fixture.cc
// Fixture: must trigger exactly dclint rule `layer-core-no-session-friend`.
namespace deltaclus {

namespace session {
class MiningSession;
}  // namespace session

class Fixture {
 private:
  friend class session::MiningSession;
  int state_ = 0;
};

}  // namespace deltaclus
