(** Last-writer-wins register store: the LWW register object
    ({!Object_layer.Lww_register}) under eager delivery ({!Eager_core}).

    Writes are stamped with Lamport timestamps (ties broken by replica id),
    giving a deterministic total order on all writes; a read returns the
    single maximal write it has seen. This is the Section 3.4 device of
    Perrin et al.: concurrency is hidden by ordering concurrent writes the
    same way everywhere. With a single object clients cannot tell the
    difference (experiment E8 finds a complying sequential abstract
    execution); with several objects plus causal and eventual consistency
    they can (the Figure 2 inference). *)

include Store_intf.S
