// Fixture: operator-contract.
//
// Every class deriving from the pipeline Operator base must override
// Close() (it records the PlanOp for the explain plan tree). Classes
// with other bases — or no base — are out of the rule's scope. A
// minimal local stand-in for the base keeps the fixture self-contained;
// the rule keys on the unqualified base name.

namespace pipeline {

class Operator {
 public:
  virtual ~Operator() = default;
  virtual void Close() {}
};

class ForgetfulOperator : public Operator {  // expect(operator-contract)
 public:
  void Open() {}
};

class DutifulOperator : public Operator {
 public:
  void Close() override;
};

class InlineCloseOperator : public Operator {
 public:
  void Close() override { Operator::Close(); }
};

// Pass-through shim: the base no-op Close() is the intended behavior.
class ShimOperator : public Operator {  // ssjoin-lint: allow(operator-contract)
 public:
  void Open() {}
};

class FreeStandingHelper {
 public:
  void Reset() {}
};

}  // namespace pipeline
