(* One repetition per child process, under a watchdog.

   A live run can hang (a domain that dies leaves its peer spinning on a
   full ring), so no repetition runs in the benchmark's own process: each
   is a child that marshals its result to its standard output and exits.
   The parent kills a child that has not exited by the deadline. A child
   that is killed, times out, exits non-zero or sends garbage is a failed
   repetition. *)

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* reap [pid], killing it if it is still running at [deadline] *)
let reap pid ~deadline =
  let rec poll () =
    match waitpid_noeintr [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (false, snd (waitpid_noeintr [] pid))
    | _, status -> (true, status)
  in
  poll ()

type outcome = {
  spawned_ns : int;  (** monotonic instant just before the spawn *)
  result : (string, string) result;  (** the child's stdout, or why it failed *)
}

(* Run [prog args] with its stdout captured; [timeout] is wall seconds
   from the spawn to the child's exit. *)
let run ~prog ~args ~timeout =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawned_ns = Traced.now_ns () in
  let deadline = Unix.gettimeofday () +. timeout in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec pump () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0.0 then
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> pump ()
      | _ ->
        let k = Unix.read rd chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          pump ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  pump ();
  let exited, status = reap pid ~deadline in
  Unix.close rd;
  let result =
    match (exited, status) with
    | false, _ -> Error (Printf.sprintf "watchdog: killed after %.1fs" timeout)
    | true, Unix.WEXITED 0 -> Ok (Buffer.contents buf)
    | true, Unix.WEXITED c -> Error (Printf.sprintf "exited with code %d" c)
    | true, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "killed by signal %d" s)
  in
  { spawned_ns; result }

(* The child's side: its result, marshalled. Parent and child are the
   same executable, so they agree on the type. *)
let reply v =
  Marshal.to_channel stdout v [];
  flush stdout

let decode outcome =
  match outcome.result with
  | Error e -> Error e
  | Ok bytes -> (
    try Ok (Marshal.from_string bytes 0)
    with Invalid_argument _ | Failure _ | End_of_file ->
      Error (Printf.sprintf "unreadable result (%d bytes)" (String.length bytes)))

(* Peak resident set of this process, in MiB ([VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())
