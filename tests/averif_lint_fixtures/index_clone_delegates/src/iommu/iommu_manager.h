// Fixture: hashed lockstep index with a Wf clause, rebuilt only in the
// pooled CloneForVerificationInto; the fresh CloneForVerification merely
// delegates to it, so it owes no rebuild of its own (clean tree).
namespace atmo {

class IommuManager {
 public:
  explicit IommuManager(PhysMem* mem) : mem_(mem) {}

  IommuDomainId CreateDomain(PageAllocator* alloc, CtnrPtr ctnr);

  bool Wf() const;
  IommuManager CloneForVerification(PhysMem* mem) const;
  void CloneForVerificationInto(IommuManager* out, PhysMem* mem) const;

 private:
  PhysMem* mem_;
  std::map<IommuDomainId, PageTable> domains_;
  std::unordered_map<IommuDomainId, PageTable*> domain_index_;
  std::unordered_map<IommuDomainId, CtnrPtr> owner_overrides_;
  DirtyLog dirty_;
};

}  // namespace atmo
