// The REST-based GoFlow API (paper Figure 2, top-left component): the
// HTTP-shaped surface "for clients and administrators to: authenticate
// and register subscribers and publishers, retrieve crowd-sensed data
// based on various filtering parameters, manage user accounts for an app,
// and submit and manage background jobs."
//
// This module maps JSON-over-paths requests onto GoFlowServer methods and
// REST status codes. Transport is out of scope (there is no socket in the
// reproduction); a RestRequest is what an HTTP front-end would hand over
// after parsing.
//
// Routes:
//   POST   /apps                                      {id, private_fields?}
//   POST   /apps/{app}/accounts                       {user, role}
//   DELETE /apps/{app}/accounts/{user}
//   POST   /apps/{app}/clients/{client}/login
//   POST   /apps/{app}/clients/{client}/logout
//   POST   /apps/{app}/clients/{client}/subscriptions {location, datatype}
//   DELETE /apps/{app}/clients/{client}/subscriptions {location, datatype}
//   GET    /apps/{app}/observations     ?user=&model=&mode=&provider=&
//                                        from=&until=&localized=&max_accuracy=&limit=
//   GET    /apps/{app}/observations/count             (same filters)
//   GET    /apps/{app}/observations/export            (same filters; JSON text)
//   GET    /apps/{app}/analytics
//   POST   /apps/{app}/jobs                           {type, delay_ms?}
//   GET    /jobs/{id}
//   GET    /metrics                     ?format=text for the line export;
//                                        JSON snapshot of the registry
//                                        otherwise (503 when the server
//                                        has no registry attached)
#pragma once

#include <functional>
#include <map>
#include <string>

#include "core/goflow_server.h"

namespace mps::core {

/// A parsed API request.
struct RestRequest {
  std::string method;  ///< "GET", "POST", "DELETE"
  std::string path;    ///< "/apps/soundcity/observations"
  std::string auth_token;
  Value body;          ///< JSON body (null when absent)
  std::map<std::string, std::string> query;
};

/// A response: HTTP status plus a JSON body.
struct RestResponse {
  int status = 200;
  Value body;
};

/// Maps an ErrorCode to its HTTP status.
int http_status(ErrorCode code);

/// The router. Job submission is REST-safe through a registry of named
/// job types (a function cannot travel in a JSON body).
class GoFlowRestApi {
 public:
  explicit GoFlowRestApi(GoFlowServer& server) : server_(server) {}

  /// Registers a named job type that POST /apps/{app}/jobs can launch.
  void register_job_type(const std::string& type, GoFlowServer::Job job);

  /// Dispatches one request.
  RestResponse handle(const RestRequest& request);

 private:
  RestResponse handle_apps(const RestRequest& request,
                           const std::vector<std::string>& parts);
  RestResponse handle_jobs(const RestRequest& request,
                           const std::vector<std::string>& parts);
  static RestResponse error_response(const Error& error);
  static RestResponse not_found();
  /// The observation filter in the query string; kInvalidArgument when
  /// from/until/limit do not fit their integer types.
  static Result<ObservationFilter> parse_filter(const RestRequest& request,
                                                const std::string& app);

  GoFlowServer& server_;
  std::map<std::string, GoFlowServer::Job> job_types_;
};

}  // namespace mps::core
