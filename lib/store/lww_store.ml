include
  Eager_core.Make
    (Object_layer.Lww_register)
    (struct
      let name = "lww-register"
    end)
