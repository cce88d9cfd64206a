let transport_of_dispatch = Oncrpc.Record.loopback
let transport server = transport_of_dispatch (Server.dispatch server)

let transport_for server ~tenant =
  transport_of_dispatch (fun request ->
      Server.dispatch_for server ~tenant request)

let connect server = Client.create ~transport:(transport server) ()

let connect_for server ~tenant =
  Client.create ~transport:(transport_for server ~tenant) ()
